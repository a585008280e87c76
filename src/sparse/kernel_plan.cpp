#include "sparse/kernel_plan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <functional>
#include <limits>
#include <mutex>
#include <sstream>

#include "linalg/blockop.hpp"
#include "linalg/matrix.hpp"
#include "sparse/csr.hpp"

namespace psdp::sparse {

namespace {

/// Widths measured when AutotuneOptions::widths is empty: the bench sweep's
/// grid, one plan bucket each.
const Index kDefaultWidths[] = {1, 2, 4, 8, 16, 32};

/// The heuristic gather/scatter crossover inherited from PR 3's
/// Csr::kGatherMaxWidth -- now only a prior for unmeasured plans.
constexpr Index kHeuristicGatherMaxWidth = 8;

/// Bucket edge of the heuristic's "everything wider" entry.
constexpr Index kWideBucket = Index{1} << 20;

/// Flops one timing sample should cover: below this the sample is jitter.
constexpr Index kTargetSampleFlops = Index{1} << 21;

}  // namespace

const char* kernel_name(TransposeKernel kernel) {
  switch (kernel) {
    case TransposeKernel::kGather:
      return "gather";
    case TransposeKernel::kSegmented:
      return "segmented";
    case TransposeKernel::kScatter:
      return "scatter";
  }
  return "unknown";
}

namespace {

TransposeKernel kernel_from_name(const std::string& name) {
  if (name == "gather") return TransposeKernel::kGather;
  if (name == "segmented") return TransposeKernel::kSegmented;
  if (name == "scatter") return TransposeKernel::kScatter;
  PSDP_CHECK(false, str("kernel plan: unknown kernel name '", name, "'"));
  return TransposeKernel::kGather;  // unreachable
}

}  // namespace

bool operator==(const KernelPlanEntry& a, const KernelPlanEntry& b) {
  return a.width == b.width && a.choice == b.choice &&
         a.gather_seconds == b.gather_seconds &&
         a.segmented_seconds == b.segmented_seconds &&
         a.scatter_seconds == b.scatter_seconds &&
         a.scalar_gather_seconds == b.scalar_gather_seconds;
}

KernelPlan KernelPlan::heuristic(bool segmented_available) {
  KernelPlan plan;
  plan.set_entry({kHeuristicGatherMaxWidth, TransposeKernel::kGather, 0, 0, 0});
  if (segmented_available) {
    plan.set_entry({kWideBucket, TransposeKernel::kSegmented, 0, 0, 0});
  }
  plan.set_provenance(simd::active_isa(), kKernelSetVersion);
  return plan;
}

KernelPlan KernelPlan::forced(TransposeKernel kernel) {
  KernelPlan plan;
  plan.set_entry({1, kernel, 0, 0, 0});
  plan.set_provenance(simd::active_isa(), kKernelSetVersion);
  return plan;
}

TransposeKernel KernelPlan::choose(Index width) const {
  if (entries_.empty()) return TransposeKernel::kGather;
  for (const KernelPlanEntry& entry : entries_) {
    if (width <= entry.width) return entry.choice;
  }
  return entries_.back().choice;  // wider than every bucket: reuse the last
}

void KernelPlan::set_entry(KernelPlanEntry entry) {
  PSDP_CHECK(entry.width >= 1, "kernel plan: bucket width must be positive");
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), entry.width,
      [](const KernelPlanEntry& e, Index w) { return e.width < w; });
  if (pos != entries_.end() && pos->width == entry.width) {
    *pos = entry;
  } else {
    entries_.insert(pos, entry);
  }
}

bool KernelPlan::measured() const {
  for (const KernelPlanEntry& entry : entries_) {
    if (entry.gather_seconds > 0 || entry.segmented_seconds > 0 ||
        entry.scatter_seconds > 0) {
      return true;
    }
  }
  return false;
}

std::string KernelPlan::to_json() const {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"entries\": [";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const KernelPlanEntry& e = entries_[i];
    out << (i > 0 ? ", " : "") << "{\"width\": " << e.width
        << ", \"kernel\": \"" << kernel_name(e.choice)
        << "\", \"gather_seconds\": " << e.gather_seconds
        << ", \"segmented_seconds\": " << e.segmented_seconds
        << ", \"scatter_seconds\": " << e.scatter_seconds
        << ", \"scalar_gather_seconds\": " << e.scalar_gather_seconds << "}";
  }
  // Provenance after the entries array: from_json bounds its search to the
  // span between the array and the enclosing '}', so these keys can never
  // collide with identically named keys elsewhere in a surrounding document
  // (the bench JSON header also carries an "isa").
  out << "], \"isa\": \"" << simd::isa_name(isa_)
      << "\", \"kernel_set_version\": " << kernel_set_version_ << "}";
  return out.str();
}

namespace {

/// Position just past `key` (a quoted JSON key) and its ':' within
/// text[from, limit); npos when absent.
std::size_t find_key(const std::string& text, const char* key,
                     std::size_t from, std::size_t limit) {
  const std::string quoted = str("\"", key, "\"");
  const std::size_t at = text.find(quoted, from);
  if (at == std::string::npos || at >= limit) return std::string::npos;
  const std::size_t colon = text.find(':', at + quoted.size());
  if (colon == std::string::npos || colon >= limit) return std::string::npos;
  return colon + 1;
}

double parse_number(const std::string& text, std::size_t at,
                    const char* what) {
  const char* begin = text.c_str() + at;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  PSDP_CHECK(end != begin, str("kernel plan: malformed ", what, " value"));
  return value;
}

std::string parse_string(const std::string& text, std::size_t at,
                         const char* what) {
  const std::size_t open = text.find('"', at);
  PSDP_CHECK(open != std::string::npos,
             str("kernel plan: malformed ", what, " value"));
  const std::size_t close = text.find('"', open + 1);
  PSDP_CHECK(close != std::string::npos,
             str("kernel plan: malformed ", what, " value"));
  return text.substr(open + 1, close - open - 1);
}

}  // namespace

KernelPlan KernelPlan::from_json(const std::string& text) {
  const std::size_t entries_at =
      find_key(text, "entries", 0, std::string::npos);
  PSDP_CHECK(entries_at != std::string::npos,
             "kernel plan: no \"entries\" array in input");
  const std::size_t array_open = text.find('[', entries_at);
  PSDP_CHECK(array_open != std::string::npos,
             "kernel plan: \"entries\" is not an array");
  const std::size_t array_close = text.find(']', array_open);
  PSDP_CHECK(array_close != std::string::npos,
             "kernel plan: unterminated \"entries\" array");

  KernelPlan plan;
  std::size_t cursor = array_open + 1;
  while (true) {
    const std::size_t open = text.find('{', cursor);
    if (open == std::string::npos || open > array_close) break;
    const std::size_t close = text.find('}', open);
    PSDP_CHECK(close != std::string::npos && close < array_close,
               "kernel plan: unterminated entry object");
    KernelPlanEntry entry;
    const std::size_t width_at = find_key(text, "width", open, close);
    PSDP_CHECK(width_at != std::string::npos,
               "kernel plan: entry without \"width\"");
    entry.width = static_cast<Index>(parse_number(text, width_at, "width"));
    const std::size_t kernel_at = find_key(text, "kernel", open, close);
    PSDP_CHECK(kernel_at != std::string::npos,
               "kernel plan: entry without \"kernel\"");
    entry.choice = kernel_from_name(parse_string(text, kernel_at, "kernel"));
    const auto seconds = [&](const char* key) -> double {
      const std::size_t at = find_key(text, key, open, close);
      return at == std::string::npos ? 0 : parse_number(text, at, key);
    };
    entry.gather_seconds = seconds("gather_seconds");
    entry.segmented_seconds = seconds("segmented_seconds");
    entry.scatter_seconds = seconds("scatter_seconds");
    entry.scalar_gather_seconds = seconds("scalar_gather_seconds");
    plan.set_entry(entry);
    cursor = close + 1;
  }
  PSDP_CHECK(!plan.entries().empty(), "kernel plan: empty \"entries\" array");
  // Provenance keys sit between the entries array and the '}' closing the
  // plan object (to_json emits them there); bounding the search to that
  // span keeps a surrounding document's own "isa" key (the bench JSON
  // header has one) from being misread as the plan's. Absent keys -- a
  // pre-revision plan -- leave the kScalar/0 default, which stale()
  // reports as stale.
  const std::size_t object_close = text.find('}', array_close);
  const std::size_t limit =
      object_close == std::string::npos ? text.size() : object_close;
  simd::Isa isa = simd::Isa::kScalar;
  int version = 0;
  const std::size_t isa_at = find_key(text, "isa", array_close, limit);
  if (isa_at != std::string::npos) {
    const std::string name = parse_string(text, isa_at, "isa");
    PSDP_CHECK(simd::isa_from_name(name, isa),
               str("kernel plan: unknown isa '", name, "'"));
  }
  const std::size_t version_at =
      find_key(text, "kernel_set_version", array_close, limit);
  if (version_at != std::string::npos) {
    version = static_cast<int>(
        parse_number(text, version_at, "kernel_set_version"));
  }
  plan.set_provenance(isa, version);
  return plan;
}

// -------------------------------------------------------------- autotuner --

namespace {

/// Deterministic panel fill for the timing runs (values are irrelevant to
/// timing; a fixed pattern keeps the measurement allocation-free of RNG
/// state and reproducible).
void fill_bench_panel(linalg::Matrix& x, Index rows, Index width) {
  x.reshape(rows, width);
  Real v = 0.5;
  for (Index i = 0; i < rows * width; ++i) {
    x.data()[i] = v;
    v = v > 4 ? 0.25 : v * 1.0625;
  }
}

}  // namespace

KernelPlan autotune_transpose_plan(const Csr& a,
                                   const AutotuneOptions& options) {
  PSDP_CHECK(a.has_transpose_index(),
             "autotune_transpose_plan: call build_transpose_index() first");
  const bool segmented = a.has_segment_index();
  std::vector<Index> widths(options.widths);
  if (widths.empty()) {
    widths.assign(std::begin(kDefaultWidths), std::end(kDefaultWidths));
  }
  const Index max_width = *std::max_element(widths.begin(), widths.end());
  if (!options.enable || 2 * a.nnz() * max_width < options.min_bench_flops) {
    return KernelPlan::heuristic(segmented);
  }

  KernelPlan plan;
  const linalg::TimingOptions timing{options.reps, options.warmup,
                                     options.min_sample_seconds};
  linalg::Matrix x, y;
  std::vector<Real> partial;
  for (const Index width : widths) {
    PSDP_CHECK(width >= 1, "autotune_transpose_plan: widths must be positive");
    fill_bench_panel(x, a.rows(), width);
    const Index flops = std::max<Index>(1, 2 * a.nnz() * width);
    const int inner = static_cast<int>(
        std::clamp<Index>(kTargetSampleFlops / flops, 1, 64));
    KernelPlanEntry entry;
    entry.width = width;
    // Timed interleaved, so load on a shared machine cannot make one
    // candidate look slower than the others and flip the choice.
    std::vector<std::function<void()>> kernels = {
        [&] {
          for (int it = 0; it < inner; ++it) {
            a.apply_transpose_block_indexed(x, y);
          }
        },
        [&] {
          for (int it = 0; it < inner; ++it) {
            a.apply_transpose_block_owned(x, y, partial);
          }
        }};
    if (segmented) {
      kernels.push_back([&] {
        for (int it = 0; it < inner; ++it) {
          a.apply_transpose_block_segmented(x, y);
        }
      });
    }
    const std::vector<double> seconds =
        linalg::time_block_kernels(timing, kernels);
    entry.gather_seconds = seconds[0] / inner;
    entry.scatter_seconds = seconds[1] / inner;
    if (segmented) entry.segmented_seconds = seconds[2] / inner;
    if (options.measure_scalar &&
        simd::active_isa() != simd::Isa::kScalar) {
      // Reporting only (bench attribution of the SIMD speedup); forced
      // scalar for the duration of this one timing, then restored.
      simd::ScopedIsa forced_scalar(simd::Isa::kScalar);
      entry.scalar_gather_seconds =
          linalg::time_block_kernel(timing, [&] {
            for (int it = 0; it < inner; ++it) {
              a.apply_transpose_block_indexed(x, y);
            }
          }) /
          inner;
    }
    // The deterministic pair first; the scatter only on explicit opt-in
    // (it is deterministic for a fixed thread count only, so letting the
    // tuner pick it would let timing noise change solver bits).
    entry.choice = TransposeKernel::kGather;
    double best = entry.gather_seconds;
    if (segmented && entry.segmented_seconds < best) {
      entry.choice = TransposeKernel::kSegmented;
      best = entry.segmented_seconds;
    }
    if (options.allow_scatter_choice && entry.scatter_seconds < best) {
      entry.choice = TransposeKernel::kScatter;
    }
    plan.set_entry(entry);
  }
  plan.set_provenance(simd::active_isa(), KernelPlan::kKernelSetVersion);
  return plan;
}

namespace {

/// Bucket of the plan memo: matrices agreeing in ceil(log2) of nnz, rows
/// and cols (and in segment-grid availability) share a decision -- but
/// only for identical tuner options, which the key fingerprints: two
/// callers differing in widths, reps, the flop gate, or the scatter
/// opt-in must never silently share a plan (the opt-in in particular
/// decides whether a cached plan can ever pick the thread-count-dependent
/// scatter). The active ISA is the sixth element: a plan's timings (and
/// stale() verdict) are per dispatch target, so a ScopedIsa change turns
/// lookups into misses instead of serving mismatched plans. The plan_cache
/// pointer is deliberately excluded: it names *which* memo to consult, not
/// what to memoize.
using PlanCacheKey = std::array<std::int64_t, 6>;

int log2_bucket(Index v) { return std::bit_width(static_cast<std::uint64_t>(std::max<Index>(v, 1))); }

std::int64_t options_fingerprint(const AutotuneOptions& options) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the knobs
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  mix(options.enable ? 1 : 0);
  mix(options.allow_scatter_choice ? 2 : 0);
  mix(options.measure_scalar ? 4 : 0);
  mix(static_cast<std::uint64_t>(options.reps));
  mix(static_cast<std::uint64_t>(options.warmup));
  mix(std::bit_cast<std::uint64_t>(options.min_sample_seconds));
  mix(static_cast<std::uint64_t>(options.min_bench_flops));
  for (const Index w : options.widths) mix(static_cast<std::uint64_t>(w));
  return static_cast<std::int64_t>(h);
}

PlanCacheKey plan_cache_key(const Csr& a, const AutotuneOptions& options) {
  return {log2_bucket(a.nnz()), log2_bucket(a.rows()), log2_bucket(a.cols()),
          a.has_segment_index() ? 1 : 0, options_fingerprint(options),
          static_cast<std::int64_t>(simd::active_isa())};
}

}  // namespace

TransposePlanCache::TransposePlanCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  slots_.reserve(capacity_);
}

KernelPlan TransposePlanCache::get(const Csr& a,
                                   const AutotuneOptions& options) {
  const PlanCacheKey key = plan_cache_key(a, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Slot& slot : slots_) {
      if (slot.key == key) {
        ++stats_.hits;
        slot.last_used = ++tick_;
        return slot.plan;
      }
    }
    ++stats_.misses;
  }
  // Measure outside the lock (the measurement runs parallel kernels); a
  // racing duplicate measurement is harmless -- last writer wins and every
  // candidate decision is bit-equivalent (gather vs segmented).
  KernelPlan plan = autotune_transpose_plan(a, options);
  std::lock_guard<std::mutex> lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.key == key) {  // a racing thread inserted first: adopt ours
      slot.plan = plan;
      slot.last_used = ++tick_;
      return plan;
    }
  }
  if (slots_.size() >= capacity_) {
    // Evict the least-recently-used slot (capacity is small; a scan is
    // cheaper than maintaining an intrusive list).
    std::size_t victim = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].last_used < slots_[victim].last_used) victim = i;
    }
    slots_[victim] = Slot{key, plan, ++tick_};
    ++stats_.evictions;
  } else {
    slots_.push_back(Slot{key, plan, ++tick_});
  }
  return plan;
}

void TransposePlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.clear();
}

std::size_t TransposePlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

TransposePlanCache::Stats TransposePlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

TransposePlanCache& global_transpose_plan_cache() {
  // Sized from the tunable registry (`plan_cache_capacity`, default
  // kDefaultCapacity) at first use; an override must land before the first
  // plan lookup (env var, or CLI flags parsed before any solve).
  static TransposePlanCache cache(
      static_cast<std::size_t>(util::tunable_plan_cache_capacity()));
  return cache;
}

KernelPlan cached_transpose_plan(const Csr& a, const AutotuneOptions& options) {
  TransposePlanCache& cache =
      options.plan_cache ? *options.plan_cache : global_transpose_plan_cache();
  return cache.get(a, options);
}

void clear_transpose_plan_cache() { global_transpose_plan_cache().clear(); }

}  // namespace psdp::sparse
