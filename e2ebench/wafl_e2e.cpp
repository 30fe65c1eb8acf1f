// End-to-end benchmark of the WAFL free-block-search library.
//
// One run = one named workload for a fixed number of seconds:
//
//   wafl_e2e --workload <aged_overwrite|seq_append|failover> --seed <n>
//            --seconds <s> --trace <0|1>
//
// The run builds its aggregate and generates every input from the seed
// before timing starts (set-up), measures the workload through the
// library's public entry points only (age_filesystem, OverlappedCpDriver,
// ConsistencyPoint::run, recover_mount, complete_background,
// iron_check_topaa, BlockStore::corrupt, media_digest), then checks the
// program's outputs against values it computes itself.  The last line of
// standard output is one JSON object: correct / attempted / failed and the
// metrics, each with its unit.  --trace 0 reports the end-to-end metrics;
// --trace 1 turns on the library's span capture and reports the per-layer
// metrics instead.  Diagnostics go to standard error.
//
// Every aggregate runs with a Runtime that holds no ThreadPool: CP fan-out
// runs serially and drains run on one DrainExecutor thread, so a run has
// at most two busy threads (the submitter and the drain).  Media is
// bit-identical at any worker count, so the work done is the same.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scan_pipeline.hpp"
#include "device/azcs.hpp"
#include "device/smr.hpp"
#include "device/ssd.hpp"
#include "device/ssd_block_mapped.hpp"
#include "obs/obs.hpp"
#include "sim/aging.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "wafl/consistency_point.hpp"
#include "wafl/fleet.hpp"
#include "wafl/iron.hpp"
#include "wafl/mount.hpp"
#include "wafl/overlapped_cp.hpp"
#include "wafl/runtime.hpp"

namespace {

using namespace wafl;

// ---------------------------------------------------------------------------
// Clocks, statistics, output.

std::uint64_t now_ns() { return obs::monotonic_ns(); }

/// Process CPU time (all threads: submitter and drain).
std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Output checks: a failed expectation makes the run incorrect.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    if (++failures_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  bool ok() const noexcept { return failures_ == 0; }

 private:
  std::uint64_t failures_ = 0;
};

std::string u64(std::uint64_t v) { return std::to_string(v); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + u64(attempted);
  out += ", \"failed\": " + u64(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kAgedOverwrite, kSeqAppend, kFailover };

struct Shape {
  Kind kind;
  std::vector<RaidGroupConfig> groups;
  std::size_t vols;
  std::uint64_t file_blocks;  // per volume
  /// Fill to 55% and fragment with Zipf-0.9 overwrites in set-up (§4.1).
  bool aged;
  std::uint32_t op_blocks;  // blocks per client op (2 = 8 KiB, 16 = 64 KiB)
  std::uint64_t gen_ops;    // mean client ops per generation (one CP each)
  std::size_t pool_gens;    // generations generated in set-up, then cycled
  /// Generations (failover: cycles) over which the deterministic metrics
  /// are taken: a fixed window, so they repeat exactly for a seed.
  std::size_t det_gens;
  /// TopAA blocks damaged before each Iron pass.
  std::size_t damaged_units;
  /// Failover cycles run after the timed phase of a write workload.
  std::size_t post_cycles;
};

constexpr double kFillFraction = 0.55;
constexpr double kZipfTheta = 0.9;

Shape make_shape(Kind kind) {
  Shape s{};
  s.kind = kind;
  switch (kind) {
    case Kind::kAgedOverwrite:
      s.groups = {fleet_hdd_group(131072), fleet_hdd_group(131072),
                  fleet_ssd_group(131072), fleet_ssd_group(131072)};
      s.vols = 4;
      s.file_blocks = 524288;
      s.aged = true;
      s.op_blocks = 2;
      s.gen_ops = 4096;
      s.pool_gens = 256;
      s.det_gens = 128;
      s.damaged_units = 2;
      s.post_cycles = 300;
      break;
    case Kind::kSeqAppend:
      s.groups = {fleet_smr_group(262144), fleet_smr_group(262144),
                  fleet_ssd_group(131072), fleet_ssd_group(131072)};
      s.vols = 4;
      // Half the aggregate's 3 Mi blocks, split over the volumes.
      s.file_blocks = 393216;
      s.aged = false;
      s.op_blocks = 16;
      s.gen_ops = 512;
      s.pool_gens = 192;  // one full wrap of the span
      s.det_gens = 384;   // two wraps: the second overwrites the first
      s.damaged_units = 2;
      s.post_cycles = 300;
      break;
    case Kind::kFailover:
      s.groups = {fleet_hdd_group(65536), fleet_hdd_group(65536),
                  fleet_hdd_group(65536), fleet_hdd_group(65536),
                  fleet_hdd_group(65536), fleet_hdd_group(65536),
                  fleet_ssd_group(65536), fleet_ssd_group(65536)};
      s.vols = 32;
      s.file_blocks = 65536;
      s.aged = true;
      s.op_blocks = 2;
      s.gen_ops = 2048;
      s.pool_gens = 64;
      s.det_gens = 32;
      s.damaged_units = 4;
      s.post_cycles = 0;
      break;
  }
  return s;
}

std::uint64_t vvbn_blocks(const Shape& s) {
  return (s.file_blocks + kFlatAaBlocks - 1) / kFlatAaBlocks * kFlatAaBlocks +
         kFlatAaBlocks;
}

std::uint64_t filled_blocks(const Shape& s) {
  return s.aged ? static_cast<std::uint64_t>(
                      kFillFraction * static_cast<double>(s.file_blocks))
                : s.file_blocks;
}

/// Independent sub-seed for one use of the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + tag);
  return rng.next();
}

enum SeedTag : std::uint64_t { kAggSeed = 1, kAgeSeed, kOpSeed, kDamageSeed };

/// One aggregate plus the services its Runtime points at.  The drain
/// executor and bundle are declared first so they outlive the aggregate.
struct System {
  DrainExecutor exec{1};
  RuntimeBundle bundle{"e2e"};
  std::unique_ptr<Aggregate> agg;

  System(const Shape& s, std::uint64_t seed) {
    AggregateConfig cfg;
    cfg.raid_groups = s.groups;
    agg = std::make_unique<Aggregate>(cfg, derive(seed, kAggSeed),
                                      bundle.runtime(nullptr, &exec));
    std::vector<VolumeId> ids;
    for (std::size_t v = 0; v < s.vols; ++v) {
      FlexVolConfig vol;
      vol.file_blocks = s.file_blocks;
      vol.vvbn_blocks = vvbn_blocks(s);
      ids.push_back(agg->add_volume(vol).id());
    }
    if (s.aged) {
      AgingConfig ac;
      ac.fill_fraction = kFillFraction;
      ac.zipf_theta = kZipfTheta;
      ac.seed = derive(seed, kAgeSeed);
      age_filesystem(*agg, ids, ac);
    }
  }
};

/// A TopAA block to damage: a RAID group's slot or a volume's first block.
struct Damage {
  bool vol;
  std::uint32_t unit;
  std::size_t bit;
};

/// Everything the timed phase feeds the program, generated in set-up.
struct Inputs {
  /// Each generation: about gen_ops client ops of op_blocks consecutive
  /// blocks each.
  std::vector<std::vector<DirtyBlock>> gens;
  /// Distinct (vol, logical) pairs per generation — the bench's own count
  /// of the blocks each CP must commit.
  std::vector<std::uint64_t> distinct;
  std::vector<std::vector<Damage>> damage;
};

/// First-occurrence order of each distinct (vol, logical): what the
/// overlapped driver's claim bitmaps leave in a generation.
std::vector<DirtyBlock> coalesce(const std::vector<DirtyBlock>& gen,
                                 std::vector<std::vector<bool>>& seen) {
  std::vector<DirtyBlock> out;
  out.reserve(gen.size());
  for (const DirtyBlock& b : gen) {
    if (seen[b.vol][b.logical]) continue;
    seen[b.vol][b.logical] = true;
    out.push_back(b);
  }
  for (const DirtyBlock& b : out) seen[b.vol][b.logical] = false;
  return out;
}

Inputs make_inputs(const Shape& s, std::uint64_t seed) {
  Inputs in;
  Rng rng(derive(seed, kOpSeed));
  std::vector<VolumeId> ids;
  for (std::size_t v = 0; v < s.vols; ++v) ids.push_back(static_cast<VolumeId>(v));
  const std::uint64_t span = filled_blocks(s);

  std::unique_ptr<RandomOverwriteWorkload> zipf;
  std::vector<std::uint64_t> cursor(s.vols, 0);
  std::vector<std::uint64_t> weight_end(s.vols, 0);  // cumulative weights
  if (s.kind == Kind::kSeqAppend) {
    // Sequential 64 KiB appends per volume from a seeded start; each op
    // goes to a volume drawn with seeded weights 1..4, so volumes wrap
    // their spans at different times and the frees of later passes land
    // in a seed-dependent order.  Each cursor wraps the volume's span.
    std::uint64_t total = 0;
    for (std::size_t v = 0; v < s.vols; ++v) {
      cursor[v] = rng.below(span / s.op_blocks) * s.op_blocks;
      total += 1 + rng.below(4);
      weight_end[v] = total;
    }
  } else {
    zipf = std::make_unique<RandomOverwriteWorkload>(ids, span, s.op_blocks,
                                                     kZipfTheta);
  }

  std::vector<std::vector<bool>> seen(s.vols,
                                      std::vector<bool>(s.file_blocks, false));
  in.gens.resize(s.pool_gens);
  for (auto& gen : in.gens) {
    // CP sizes vary: gen_ops +/- 25%, seeded.
    const std::uint64_t ops = s.gen_ops * 3 / 4 + rng.below(s.gen_ops / 2 + 1);
    gen.reserve(ops * s.op_blocks);
    for (std::uint64_t op = 0; op < ops; ++op) {
      DirtyBlock start{};
      if (zipf != nullptr) {
        start = zipf->next_write(rng);
      } else {
        const std::uint64_t w = rng.below(weight_end.back());
        const auto v = static_cast<VolumeId>(
            std::upper_bound(weight_end.begin(), weight_end.end(), w) -
            weight_end.begin());
        start = {v, cursor[v]};
        cursor[v] = (cursor[v] + s.op_blocks) % span;
      }
      for (std::uint32_t b = 0; b < s.op_blocks; ++b) {
        gen.push_back({start.vol, start.logical + b});
      }
    }
    in.distinct.push_back(coalesce(gen, seen).size());
  }

  // Damage plans, cycled by the failover loop: a seeded choice of
  // damaged_units distinct TopAA units and one bit in each.
  Rng drng(derive(seed, kDamageSeed));
  const std::size_t units = s.groups.size() + s.vols;
  in.damage.resize(64);
  for (auto& plan : in.damage) {
    std::vector<std::uint32_t> pick(units);
    for (std::uint32_t u = 0; u < units; ++u) pick[u] = u;
    for (std::size_t i = 0; i < s.damaged_units; ++i) {
      std::swap(pick[i], pick[i + drng.below(units - i)]);
      const std::uint32_t u = pick[i];
      const bool vol = u >= s.groups.size();
      plan.push_back({vol,
                      vol ? static_cast<std::uint32_t>(u - s.groups.size()) : u,
                      static_cast<std::size_t>(drng.below(kBlockSize * 8))});
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Tracing: spans are collected at quiescent points (no span open on any
// thread) so the 8192-slot per-thread span ring never wraps.

struct SpanAcc {
  std::uint64_t wall_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t count = 0;
};

/// The spans the per-layer report names, in report order.
constexpr obs::SpanKind kReportedSpans[] = {
    // Intake and freeze.
    obs::SpanKind::kCpIntake, obs::SpanKind::kCpStall, obs::SpanKind::kCpFreeze,
    obs::SpanKind::kCpSort, obs::SpanKind::kCpLeaseDrain,
    // CP phases.
    obs::SpanKind::kCpDrain, obs::SpanKind::kCpAlloc, obs::SpanKind::kCpVolumes,
    obs::SpanKind::kCpDelayedFree, obs::SpanKind::kCpVolFinish,
    obs::SpanKind::kCpAggFinish,
    // Allocation, tetris.
    obs::SpanKind::kWaPlan, obs::SpanKind::kWaExecute,
    obs::SpanKind::kWaRgExecute, obs::SpanKind::kWaMerge,
    obs::SpanKind::kRgFill, obs::SpanKind::kRgTetrisFlush,
    // CP boundary.
    obs::SpanKind::kFcWindows, obs::SpanKind::kFcOwner,
    obs::SpanKind::kFcPartition, obs::SpanKind::kFcBoundary,
    obs::SpanKind::kFcRgBoundary, obs::SpanKind::kFcMerge,
    obs::SpanKind::kFcFlush, obs::SpanKind::kFcFlushBlock,
    obs::SpanKind::kFcTopaa, obs::SpanKind::kFcFold,
    // Recovery.
    obs::SpanKind::kRecoverLoad, obs::SpanKind::kMount,
    obs::SpanKind::kMountVolSeed, obs::SpanKind::kMountScan,
    obs::SpanKind::kIronCheck,
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const noexcept { return on_; }

  /// Folds every span recorded since the last call and empties the rings.
  /// Call only when no span is open on any thread.  Returns the time the
  /// collection took, which callers keep out of their measurements.
  std::uint64_t collect() {
    const std::uint64_t t0 = now_ns();
    std::vector<obs::SpanRecord> recs = obs::spans().snapshot();
    dropped_ += obs::spans().dropped();
    obs::spans().clear();
    std::map<std::uint64_t, std::uint64_t> child_ns;
    for (const obs::SpanRecord& r : recs) {
      if (r.parent != 0) child_ns[r.parent] += r.t1_ns - r.t0_ns;
    }
    for (const obs::SpanRecord& r : recs) {
      const std::uint64_t dur = r.t1_ns - r.t0_ns;
      const auto it = child_ns.find(r.id);
      const std::uint64_t kids = it == child_ns.end() ? 0 : it->second;
      SpanAcc& a = acc_[r.kind];
      a.wall_ns += dur;
      a.self_ns += kids < dur ? dur - kids : 0;
      ++a.count;
      if (r.kind == obs::SpanKind::kCpAlloc) alloc_span_blocks_ += r.b;
    }
    return now_ns() - t0;
  }

  /// Records what OverlappedCpDriver's counters say about one traced CP, for
  /// the two independent cross-checks of the trace.
  void expect_cp(std::uint64_t drain_ns, std::uint64_t blocks_written) {
    stats_drain_ns_ += drain_ns;
    stats_blocks_ += blocks_written;
    ++traced_cps_;
  }

  const SpanAcc& span(obs::SpanKind k) const {
    static const SpanAcc kNone{};
    const auto it = acc_.find(k);
    return it == acc_.end() ? kNone : it->second;
  }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t alloc_span_blocks() const noexcept { return alloc_span_blocks_; }
  std::uint64_t stats_drain_ns() const noexcept { return stats_drain_ns_; }
  std::uint64_t stats_blocks() const noexcept { return stats_blocks_; }
  std::uint64_t traced_cps() const noexcept { return traced_cps_; }

 private:
  bool on_;
  std::map<obs::SpanKind, SpanAcc> acc_;
  std::uint64_t dropped_ = 0;
  std::uint64_t alloc_span_blocks_ = 0;
  std::uint64_t stats_drain_ns_ = 0;
  std::uint64_t stats_blocks_ = 0;
  std::uint64_t traced_cps_ = 0;
};

/// Counter totals by name, summed over label sets.
std::map<std::string, std::uint64_t> counter_totals(const obs::Registry& reg) {
  std::map<std::string, std::uint64_t> out;
  for (const obs::Registry::Entry& e : reg.entries()) {
    if (e.kind == obs::Registry::Kind::kCounter) out[e.name] += e.counter->value();
  }
  return out;
}

/// Device-model relocations: SSD FTL relocations and SMR out-of-place
/// (media-cache) updates, summed over every data device.
struct Relocations {
  std::uint64_t ssd = 0;
  std::uint64_t smr = 0;
};

Relocations relocations(Aggregate& agg) {
  Relocations r;
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    const std::size_t devs = agg.raid_group(rg).geometry().data_devices();
    for (DeviceId d = 0; d < devs; ++d) {
      DeviceModel* dev = &agg.data_device(rg, d);
      if (auto* az = dynamic_cast<AzcsDevice*>(dev)) dev = &az->raw();
      if (auto* bm = dynamic_cast<BlockMappedSsdModel*>(dev)) {
        r.ssd += bm->merge_relocations();
      } else if (auto* ssd = dynamic_cast<SsdModel*>(dev)) {
        r.ssd += ssd->gc_relocations();
      } else if (auto* smr = dynamic_cast<SmrModel*>(dev)) {
        r.smr += smr->cache_update_blocks();
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output checks computed apart from the program.

/// Conservation: allocated aggregate blocks equal mapped logical blocks
/// across volumes, and each volume's VVBN usage equals its mapped count.
void check_conservation(Aggregate& agg, Checks& ck) {
  std::uint64_t mapped_total = 0;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const FlexVol& vol = agg.volume(v);
    std::uint64_t mapped = 0;
    for (std::uint64_t l = 0; l < vol.file_blocks(); ++l) {
      if (vol.is_mapped(l)) ++mapped;
    }
    const std::uint64_t used = vol.config().vvbn_blocks - vol.free_blocks();
    ck.expect(used == mapped, "vol " + u64(v) + " vvbn usage " + u64(used) +
                                  " != mapped " + u64(mapped));
    mapped_total += mapped;
  }
  const std::uint64_t used = agg.total_blocks() - agg.free_blocks();
  ck.expect(used == mapped_total, "aggregate allocated " + u64(used) +
                                      " != mapped " + u64(mapped_total));
}

/// Each RAID-aware group's cache best equals the fullest-free AA recounted
/// from the activemap bits.
void check_cache_best(const Aggregate& agg, Checks& ck, const char* when) {
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    if (agg.rg_is_raid_agnostic(rg)) continue;
    const AaLayout& layout = agg.rg_layout(rg);
    AaScore best = 0;
    for (AaId aa = 0; aa < layout.aa_count(); ++aa) {
      AaScore free = 0;
      for (Vbn v = layout.aa_begin(aa); v < layout.aa_end(aa); ++v) {
        if (!agg.activemap().is_allocated(v)) ++free;
      }
      best = std::max(best, free);
    }
    const AaScore cached = agg.rg_cache(rg).peek_best_score().value_or(0);
    ck.expect(cached == best, std::string(when) + ": rg " + u64(rg) +
                                  " cache best " + u64(cached) +
                                  " != recount " + u64(best));
  }
}

// ---------------------------------------------------------------------------
// Failover cycle: TopAA mount, (optional first CP), background completion,
// scan mount, damage + Iron repair.

struct FailoverSamples {
  std::vector<double> topaa_ms, background_ms, scan_ms, iron_ms;
  std::uint64_t gate_block_reads = 0;
  std::uint64_t steps = 0;
};

struct CycleResult {
  std::uint64_t program_ns = 0;  // wall inside library calls
  std::uint64_t program_cpu_ns = 0;
  double commit_ms = 0.0;
  std::uint64_t submit_ns = 0;  // first CP: intake, then the wait to commit
  std::uint64_t wait_ns = 0;
  OverlapStats cp;  // the cycle's driver stats (first CP only)
};

CycleResult failover_cycle(System& sys, const Shape& s,
                           const std::vector<DirtyBlock>* gen,
                           std::uint64_t gen_distinct,
                           const std::vector<Damage>& damage,
                           FailoverSamples& fs, Checks& ck) {
  Aggregate& agg = *sys.agg;
  CycleResult cr;
  auto timed = [&](auto&& fn) {
    const std::uint64_t c0 = cpu_ns();
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t dt = now_ns() - t0;
    cr.program_cpu_ns += cpu_ns() - c0;
    cr.program_ns += dt;
    ++fs.steps;
    return to_ms(dt);
  };

  std::uint64_t vol_meta_blocks = 0;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    vol_meta_blocks +=
        (agg.volume(v).config().vvbn_blocks + kBitsPerBitmapBlock - 1) /
        kBitsPerBitmapBlock;
  }
  const std::uint64_t agg_meta_blocks =
      (agg.total_blocks() + kBitsPerBitmapBlock - 1) / kBitsPerBitmapBlock;

  MountReport topaa;
  fs.topaa_ms.push_back(timed([&] { topaa = recover_mount(agg, true); }));
  fs.gate_block_reads += topaa.gate_block_reads;
  ck.expect(topaa.gate_block_reads == agg.raid_group_count() + 2 * agg.volume_count(),
            "TopAA gate reads " + u64(topaa.gate_block_reads));
  ck.expect(topaa.rgs_seeded == agg.raid_group_count() &&
                topaa.vols_seeded == agg.volume_count(),
            "TopAA mount seeded " + u64(topaa.rgs_seeded) + " groups, " +
                u64(topaa.vols_seeded) + " volumes");
  check_cache_best(agg, ck, "after TopAA mount");

  if (gen != nullptr) {
    // The first CP after mount (Fig. 10's gate), on the TopAA-seeded caches.
    OverlappedCpDriver driver(agg);
    cr.commit_ms = timed([&] {
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < gen->size(); i += s.op_blocks) {
        driver.submit(std::span<const DirtyBlock>(gen->data() + i, s.op_blocks));
      }
      const std::uint64_t t1 = now_ns();
      driver.start_cp();
      driver.wait_idle();
      cr.submit_ns = t1 - t0;
      cr.wait_ns = now_ns() - t1;
    });
    cr.cp = driver.stats();
    ck.expect(cr.cp.cp.blocks_written == gen_distinct,
              "first CP committed " + u64(cr.cp.cp.blocks_written) +
                  " blocks, generation holds " + u64(gen_distinct));
  }

  fs.background_ms.push_back(timed([&] { complete_background(agg); }));

  MountReport scan;
  fs.scan_ms.push_back(timed([&] { scan = recover_mount(agg, false); }));
  fs.gate_block_reads += scan.gate_block_reads;
  ck.expect(scan.gate_block_reads == agg_meta_blocks + vol_meta_blocks,
            "scan gate reads " + u64(scan.gate_block_reads) + " != " +
                u64(agg_meta_blocks + vol_meta_blocks));
  check_cache_best(agg, ck, "after scan mount");

  for (const Damage& d : damage) {
    if (d.vol) {
      BlockStore& st = agg.volume(d.unit).store();
      st.corrupt(st.capacity_blocks() - TopAaFile::kRaidAgnosticBlocks, d.bit);
    } else {
      agg.topaa_store().corrupt(agg.rg_topaa_block(d.unit), d.bit);
    }
  }
  IronReport ir;
  fs.iron_ms.push_back(timed([&] { ir = iron_check_topaa(agg); }));
  ck.expect(ir.rg_rewritten + ir.vol_rewritten == damage.size(),
            "Iron rewrote " + u64(ir.rg_rewritten + ir.vol_rewritten) +
                " TopAA units, " + u64(damage.size()) + " damaged");
  ck.expect(iron_check_topaa(agg).clean(), "second Iron pass not clean");
  return cr;
}

// ---------------------------------------------------------------------------
// Timed write phase through the overlapped CP driver.

struct WriteRun {
  std::uint64_t gens = 0;
  std::uint64_t ops = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t wait_ns = 0;
  std::vector<double> commit_ms;
  OverlapStats stats;
  OverlapStats det;  // after the deterministic window
  double det_write_amp = 0.0;
  std::vector<double> traced_period_ms, untraced_period_ms;
};

/// Generations per alternating traced / untraced block in traced mode.
constexpr std::uint64_t kTraceBlock = 8;

WriteRun timed_writes(System& sys, const Shape& s, const Inputs& in,
                      double seconds, Tracer& tr) {
  Aggregate& agg = *sys.agg;
  OverlappedCpDriver driver(agg);
  WriteRun r;
  agg.reset_wear_windows();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t c0 = cpu_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::uint64_t> first_submit;
  std::uint64_t prev_return = t0;
  std::uint64_t prev_drain_ns = 0, prev_blocks = 0;
  bool prev_traced = false;

  auto fold_trace = [&](bool traced) {
    const OverlapStats st = driver.stats();
    if (traced) tr.expect_cp(st.drain_ns - prev_drain_ns,
                             st.cp.blocks_written - prev_blocks);
    prev_drain_ns = st.drain_ns;
    prev_blocks = st.cp.blocks_written;
    return tr.collect();
  };

  for (std::uint64_t g = 0;; ++g) {
    const std::vector<DirtyBlock>& gen = in.gens[g % in.gens.size()];
    const std::uint64_t ts = now_ns();
    first_submit.push_back(ts);
    for (std::size_t i = 0; i < gen.size(); i += s.op_blocks) {
      driver.submit(std::span<const DirtyBlock>(gen.data() + i, s.op_blocks));
    }
    const std::uint64_t tw = now_ns();
    r.submit_ns += tw - ts;
    r.ops += gen.size() / s.op_blocks;

    if (g == s.det_gens) {
      // start_cp would wait for this drain anyway: same schedule.
      driver.wait_idle();
      r.det = driver.stats();
      r.det_write_amp = agg.mean_write_amplification();
    }
    std::uint64_t collect_ns = 0;
    bool traced = false;
    if (tr.on()) {
      driver.wait_idle();
      collect_ns = fold_trace(prev_traced);
      traced = (g / kTraceBlock) % 2 == 0;
      obs::set_span_capture(traced);
    }
    driver.start_cp();
    const std::uint64_t tc = now_ns();
    r.wait_ns += tc - tw - collect_ns;
    if (g > 0) {
      r.commit_ms.push_back(to_ms(tc - first_submit[g - 1]));
      const double period = to_ms(tc - prev_return - collect_ns);
      (prev_traced ? r.traced_period_ms : r.untraced_period_ms).push_back(period);
    }
    prev_return = tc;
    prev_traced = traced;
    if (tc >= deadline && g >= s.det_gens) {
      r.gens = g + 1;
      break;
    }
  }
  driver.wait_idle();
  const std::uint64_t te = now_ns();
  r.commit_ms.push_back(to_ms(te - first_submit.back()));
  r.wall_ns = te - t0;
  r.cpu_ns = cpu_ns() - c0;
  r.stats = driver.stats();
  if (tr.on()) {
    fold_trace(prev_traced);
    obs::set_span_capture(false);
  }
  return r;
}

/// Replays the same coalesced generations stop-the-world on a second
/// aggregate built from the same seeds; returns its media digest.
std::uint64_t replay_digest(const Shape& s, std::uint64_t seed,
                            const Inputs& in, std::uint64_t gens,
                            std::uint64_t& blocks_written) {
  System ref(s, seed);
  std::vector<std::vector<bool>> seen(s.vols,
                                      std::vector<bool>(s.file_blocks, false));
  std::vector<std::vector<DirtyBlock>> coalesced;
  coalesced.reserve(in.gens.size());
  for (const auto& gen : in.gens) coalesced.push_back(coalesce(gen, seen));
  blocks_written = 0;
  for (std::uint64_t g = 0; g < gens; ++g) {
    blocks_written +=
        ConsistencyPoint::run(*ref.agg, coalesced[g % coalesced.size()])
            .blocks_written;
  }
  return media_digest(*ref.agg);
}

// ---------------------------------------------------------------------------
// Reports.

double gib(std::uint64_t blocks) {
  return static_cast<double>(blocks) * kBlockSize / (1024.0 * 1024.0 * 1024.0);
}

struct Deterministic {
  double search_bits_per_block = 0.0;
  double sim_device_ms_per_gib = 0.0;
  double media_write_amp = 0.0;
};

Deterministic deterministic(const CpStats& cp, double write_amp) {
  Deterministic d;
  const double blocks = static_cast<double>(std::max<std::uint64_t>(1, cp.blocks_written));
  d.search_bits_per_block =
      static_cast<double>(cp.vol_bits_scanned + cp.agg_bits_scanned) / blocks;
  d.sim_device_ms_per_gib =
      static_cast<double>(cp.storage_time_ns) / 1e6 / gib(cp.blocks_written);
  d.media_write_amp = write_amp;
  return d;
}

void add_e2e(std::vector<Metric>& m, double setup_s, double rss_mib,
             double write_mblk_s, const std::vector<double>& commit_ms,
             double cpu_ns_per_block, const Deterministic& det,
             const FailoverSamples& fs) {
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"peak_rss_mib", rss_mib, "MiB"});
  m.push_back({"write_mblk_s", write_mblk_s, "Mblk/s"});
  m.push_back({"commit_ms_p50", quantile(commit_ms, 0.5), "ms"});
  m.push_back({"commit_ms_p90", quantile(commit_ms, 0.9), "ms"});
  m.push_back({"cpu_ns_per_block", cpu_ns_per_block, "ns"});
  m.push_back({"search_bits_per_block", det.search_bits_per_block, "bits"});
  m.push_back({"sim_device_ms_per_gib", det.sim_device_ms_per_gib, "ms/GiB"});
  m.push_back({"media_write_amp", det.media_write_amp, "ratio"});
  m.push_back({"mount_topaa_ms", quantile(fs.topaa_ms, 0.5), "ms"});
  m.push_back({"mount_background_ms", quantile(fs.background_ms, 0.5), "ms"});
  m.push_back({"mount_scan_ms", quantile(fs.scan_ms, 0.5), "ms"});
  m.push_back({"iron_repair_ms", quantile(fs.iron_ms, 0.5), "ms"});
}

/// Window-wide counters for the per-layer report.
struct LayerCounters {
  std::map<std::string, std::uint64_t> registry;
  Relocations reloc;
  OverlapStats overlap;
  double scan_read_ms = 0, scan_seed_ms = 0, scan_build_ms = 0;
  std::uint64_t gate_block_reads = 0;
};

/// Counter values at the start of a measured window.
struct LayerBaseline {
  std::map<std::string, std::uint64_t> registry;
  Relocations reloc;
};

LayerBaseline layer_baseline(System& sys) {
  scan_profile().reset();
  return {counter_totals(sys.bundle.registry), relocations(*sys.agg)};
}

/// The registry and device counters' deltas since `base`.
LayerCounters layer_counters(System& sys, const LayerBaseline& base,
                             const OverlapStats& overlap) {
  LayerCounters lc;
  for (const auto& [name, v] : counter_totals(sys.bundle.registry)) {
    const auto it = base.registry.find(name);
    lc.registry[name] = v - (it == base.registry.end() ? 0 : it->second);
  }
  const Relocations rel = relocations(*sys.agg);
  lc.reloc = {rel.ssd - base.reloc.ssd, rel.smr - base.reloc.smr};
  lc.overlap = overlap;
  return lc;
}

/// Recovery-side counters: the ScanProfile buckets and mount gate reads.
void add_recovery_counters(LayerCounters& lc, const FailoverSamples& fs) {
  lc.scan_read_ms = static_cast<double>(scan_profile().read_ns.load()) / 1e6;
  lc.scan_seed_ms = static_cast<double>(scan_profile().seed_ns.load()) / 1e6;
  lc.scan_build_ms = static_cast<double>(scan_profile().build_ns.load()) / 1e6;
  lc.gate_block_reads = fs.gate_block_reads;
}

void add_per_layer(std::vector<Metric>& m, const Tracer& tr,
                   const LayerCounters& lc, double submit_ms, double wait_ms,
                   double overhead_pct) {
  auto reg = [&](const char* name) {
    const auto it = lc.registry.find(name);
    return static_cast<double>(it == lc.registry.end() ? 0 : it->second);
  };
  const CpStats& cp = lc.overlap.cp;
  m.push_back({"intake.submit_ms", submit_ms, "ms"});
  m.push_back({"intake.start_cp_wait_ms", wait_ms, "ms"});
  m.push_back({"intake.blocks_coalesced",
               static_cast<double>(lc.overlap.blocks_coalesced), "count"});
  m.push_back({"intake.lease_hits", static_cast<double>(lc.overlap.lease_hits), "count"});
  m.push_back({"intake.lease_misses", static_cast<double>(lc.overlap.lease_misses), "count"});
  for (obs::SpanKind k : kReportedSpans) {
    const std::string name = "span." + std::string(obs::span_kind_name(k));
    const SpanAcc& a = tr.span(k);
    m.push_back({name + ".wall_ms", to_ms(a.wall_ns), "ms"});
    m.push_back({name + ".self_ms", to_ms(a.self_ns), "ms"});
    m.push_back({name + ".count", static_cast<double>(a.count), "count"});
  }
  m.push_back({"alloc.hbps_rebins", reg("wafl.hbps.rebins"), "count"});
  m.push_back({"alloc.heap_rekeys", reg("wafl.heap.rekeys"), "count"});
  m.push_back({"alloc.heap_cp_rekeys", reg("wafl.heap.cp_rekeys"), "count"});
  m.push_back({"alloc.hbps_replenishes", static_cast<double>(cp.hbps_replenishes), "count"});
  m.push_back({"alloc.vol_pick_free_frac", cp.vol_pick_free_frac.mean(), "fraction"});
  m.push_back({"alloc.agg_pick_free_frac", cp.agg_pick_free_frac.mean(), "fraction"});
  m.push_back({"boundary.meta_flush_blocks", static_cast<double>(cp.meta_flush_blocks), "count"});
  m.push_back({"boundary.blocks_freed", static_cast<double>(cp.blocks_freed), "count"});
  m.push_back({"raid.tetrises", static_cast<double>(cp.tetrises), "count"});
  m.push_back({"raid.full_stripes", static_cast<double>(cp.full_stripes), "count"});
  m.push_back({"raid.partial_stripes", static_cast<double>(cp.partial_stripes), "count"});
  m.push_back({"raid.parity_read_blocks", static_cast<double>(cp.parity_read_blocks), "count"});
  m.push_back({"raid.write_chains", static_cast<double>(cp.write_chains), "count"});
  m.push_back({"device.ssd_relocations", static_cast<double>(lc.reloc.ssd), "count"});
  m.push_back({"device.smr_relocations", static_cast<double>(lc.reloc.smr), "count"});
  m.push_back({"recovery.scan_read_ms", lc.scan_read_ms, "ms"});
  m.push_back({"recovery.scan_seed_ms", lc.scan_seed_ms, "ms"});
  m.push_back({"recovery.scan_build_ms", lc.scan_build_ms, "ms"});
  m.push_back({"recovery.gate_block_reads", static_cast<double>(lc.gate_block_reads), "count"});
  m.push_back({"obs.spans_dropped", static_cast<double>(tr.dropped()), "count"});
  m.push_back({"obs.trace_overhead_pct", overhead_pct, "%"});
  m.push_back({"obs.traced_cps", static_cast<double>(tr.traced_cps()), "count"});
  m.push_back({"check.drain_span_ms", to_ms(tr.span(obs::SpanKind::kCpDrain).wall_ns), "ms"});
  m.push_back({"check.drain_stats_ms", to_ms(tr.stats_drain_ns()), "ms"});
  m.push_back({"check.alloc_span_blocks", static_cast<double>(tr.alloc_span_blocks()), "count"});
  m.push_back({"check.blocks_written", static_cast<double>(tr.stats_blocks()), "count"});
}

/// The two trace cross-checks and the no-drop rule.
void check_trace(const Tracer& tr, Checks& ck) {
  ck.expect(tr.dropped() == 0, "spans dropped: " + u64(tr.dropped()));
  ck.expect(tr.traced_cps() > 0, "no traced CP");
  ck.expect(tr.alloc_span_blocks() == tr.stats_blocks(),
            "cp.alloc span blocks " + u64(tr.alloc_span_blocks()) +
                " != CpStats blocks_written " + u64(tr.stats_blocks()));
  // cp.drain opens inside OverlappedCpDriver's drain job, whose drain_ns interval
  // also covers the job's bookkeeping: the span sum must be within it and
  // cover at least 95% of it.
  const double span_ns = static_cast<double>(tr.span(obs::SpanKind::kCpDrain).wall_ns);
  const double stats_ns = static_cast<double>(tr.stats_drain_ns());
  ck.expect(span_ns <= stats_ns && span_ns >= 0.95 * stats_ns,
            "cp.drain span time " + std::to_string(span_ns / 1e6) +
                " ms vs OverlapStats::drain_ns " + std::to_string(stats_ns / 1e6) + " ms");
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0.0;
  return (quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0) * 100.0;
}

// ---------------------------------------------------------------------------
// Workload drivers.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int run_write_workload(const Args& a, const Shape& s, std::uint64_t t_start) {
  Checks ck;
  System sys(s, a.seed);
  const Inputs in = make_inputs(s, a.seed);
  const double setup_s = static_cast<double>(now_ns() - t_start) / 1e9;
  Aggregate& agg = *sys.agg;

  Tracer tr(a.trace);
  const LayerBaseline base = layer_baseline(sys);
  const WriteRun w = timed_writes(sys, s, in, a.seconds, tr);
  const double rss = peak_rss_mib();
  std::fprintf(stderr, "%s: %llu generations, %llu blocks in %.3f s\n",
               a.workload.c_str(), static_cast<unsigned long long>(w.gens),
               static_cast<unsigned long long>(w.stats.cp.blocks_written),
               static_cast<double>(w.wall_ns) / 1e9);

  // Output checks on the written aggregate.
  check_conservation(agg, ck);
  std::uint64_t expected_blocks = 0;
  for (std::uint64_t g = 0; g < w.gens; ++g) expected_blocks += in.distinct[g % in.distinct.size()];
  ck.expect(w.stats.cp.blocks_written == expected_blocks,
            "committed " + u64(w.stats.cp.blocks_written) + " blocks, generations hold " +
                u64(expected_blocks));
  ck.expect(w.stats.cps_completed == w.gens, "CPs completed " + u64(w.stats.cps_completed));
  const std::uint64_t digest = media_digest(agg);

  LayerCounters lc = layer_counters(sys, base, w.stats);

  // Failover of the written aggregate: the mount metrics.
  FailoverSamples fs;
  const std::uint64_t tf = now_ns();
  obs::set_span_capture(tr.on());
  for (std::size_t c = 0; c < s.post_cycles; ++c) {
    failover_cycle(sys, s, nullptr, 0, in.damage[c % in.damage.size()], fs, ck);
    if (tr.on()) tr.collect();
  }
  obs::set_span_capture(false);
  std::fprintf(stderr, "%zu failover cycles in %.3f s\n", s.post_cycles,
               static_cast<double>(now_ns() - tf) / 1e9);
  add_recovery_counters(lc, fs);

  // Overlapped == stop-the-world: replay on a second aggregate.  The
  // written aggregate is released first so both never coexist.
  sys.agg.reset();
  const std::uint64_t tr0 = now_ns();
  std::uint64_t ref_blocks = 0;
  const std::uint64_t ref_digest = replay_digest(s, a.seed, in, w.gens, ref_blocks);
  std::fprintf(stderr, "stop-the-world replay in %.3f s\n",
               static_cast<double>(now_ns() - tr0) / 1e9);
  ck.expect(ref_digest == digest, "media digest differs from the stop-the-world replay");
  ck.expect(ref_blocks == w.stats.cp.blocks_written, "replay committed " + u64(ref_blocks));

  std::vector<Metric> m;
  if (a.trace) {
    check_trace(tr, ck);
    add_per_layer(m, tr, lc, to_ms(w.submit_ns), to_ms(w.wait_ns),
                  overhead_pct(w.traced_period_ms, w.untraced_period_ms));
  } else {
    const double blocks = static_cast<double>(w.stats.cp.blocks_written);
    add_e2e(m, setup_s, rss, blocks / (static_cast<double>(w.wall_ns) / 1e9) / 1e6,
            w.commit_ms, static_cast<double>(w.cpu_ns) / blocks,
            deterministic(w.det.cp, w.det_write_amp), fs);
  }
  print_result(ck.ok(), w.ops + fs.steps, 0, m);
  return 0;
}

int run_failover(const Args& a, const Shape& s, std::uint64_t t_start) {
  Checks ck;
  System sys(s, a.seed);
  const Inputs in = make_inputs(s, a.seed);
  const double setup_s = static_cast<double>(now_ns() - t_start) / 1e9;
  Aggregate& agg = *sys.agg;

  Tracer tr(a.trace);
  const LayerBaseline base = layer_baseline(sys);
  agg.reset_wear_windows();

  FailoverSamples fs;
  std::vector<double> commit_ms, traced_ms, untraced_ms;
  OverlapStats total;
  CpStats det;
  double det_write_amp = 0.0;
  std::uint64_t program_ns = 0, program_cpu_ns = 0, expected_blocks = 0;
  std::uint64_t submit_ns = 0, wait_ns = 0;
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(a.seconds * 1e9);
  std::uint64_t cycles = 0;
  for (;; ++cycles) {
    const bool traced = tr.on() && cycles % 2 == 0;
    obs::set_span_capture(traced);
    const std::size_t gi = cycles % in.gens.size();
    const CycleResult cr = failover_cycle(sys, s, &in.gens[gi], in.distinct[gi],
                                          in.damage[cycles % in.damage.size()], fs, ck);
    if (tr.on()) {
      if (traced) tr.expect_cp(cr.cp.drain_ns, cr.cp.cp.blocks_written);
      tr.collect();
      (traced ? traced_ms : untraced_ms).push_back(to_ms(cr.program_ns));
    }
    program_ns += cr.program_ns;
    program_cpu_ns += cr.program_cpu_ns;
    submit_ns += cr.submit_ns;
    wait_ns += cr.wait_ns;
    commit_ms.push_back(cr.commit_ms);
    expected_blocks += in.distinct[gi];
    total.cp.merge(cr.cp.cp);
    total.blocks_coalesced += cr.cp.blocks_coalesced;
    total.lease_hits += cr.cp.lease_hits;
    total.lease_misses += cr.cp.lease_misses;
    if (cycles < s.det_gens) det.merge(cr.cp.cp);
    if (cycles + 1 == s.det_gens) det_write_amp = agg.mean_write_amplification();
    if (now_ns() >= deadline && cycles + 1 >= s.det_gens) {
      ++cycles;
      break;
    }
  }
  obs::set_span_capture(false);
  const double rss = peak_rss_mib();
  std::fprintf(stderr, "failover: %llu cycles in %.3f s (%.3f s inside the library)\n",
               static_cast<unsigned long long>(cycles),
               static_cast<double>(now_ns() - t0) / 1e9,
               static_cast<double>(program_ns) / 1e9);

  check_conservation(agg, ck);
  ck.expect(total.cp.blocks_written == expected_blocks,
            "committed " + u64(total.cp.blocks_written) + " blocks, generations hold " +
                u64(expected_blocks));

  std::vector<Metric> m;
  if (a.trace) {
    LayerCounters lc = layer_counters(sys, base, total);
    add_recovery_counters(lc, fs);
    check_trace(tr, ck);
    add_per_layer(m, tr, lc, to_ms(submit_ns), to_ms(wait_ns),
                  overhead_pct(traced_ms, untraced_ms));
  } else {
    const double blocks = static_cast<double>(total.cp.blocks_written);
    add_e2e(m, setup_s, rss, blocks / (static_cast<double>(program_ns) / 1e9) / 1e6,
            commit_ms, static_cast<double>(program_cpu_ns) / blocks,
            deterministic(det, det_write_amp), fs);
  }
  print_result(ck.ok(), fs.steps, 0, m);
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: wafl_e2e --workload <aged_overwrite|seq_append|failover> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed takes an unsigned integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t t_start = now_ns();
  const Args a = parse_args(argc, argv);
  try {
    if (a.workload == "aged_overwrite") {
      return run_write_workload(a, make_shape(Kind::kAgedOverwrite), t_start);
    }
    if (a.workload == "seq_append") {
      return run_write_workload(a, make_shape(Kind::kSeqAppend), t_start);
    }
    if (a.workload == "failover") {
      return run_failover(a, make_shape(Kind::kFailover), t_start);
    }
    usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
