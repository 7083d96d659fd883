#include "pdr/obs/registry.h"

#include <cmath>
#include <cstdlib>

#include "pdr/common/geometry.h"

namespace pdr {

#if PDR_OBS_COMPILED
namespace {

bool InitialEnabled() {
  const char* env = std::getenv("PDR_OBS");
  return env == nullptr || std::string_view(env) != "0";
}

}  // namespace

std::atomic<bool> PdrObs::enabled_{InitialEnabled()};
#endif

void PdrObs::SetEnabled(bool on) {
#if PDR_OBS_COMPILED
  enabled_.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

double Histogram::BucketLowerBound(int i) {
  if (i <= 0) return 0.0;
  return kMinValue * std::ldexp(1.0, i - 1);
}

int Histogram::BucketOf(double v) {
  if (!(v >= kMinValue)) return 0;  // also catches NaN
  const int i = static_cast<int>(std::floor(std::log2(v / kMinValue))) + 1;
  return i >= kBuckets ? kBuckets - 1 : i;
}

void Histogram::Observe(double v) {
  if (!PdrObs::Enabled()) return;
  const int bucket = BucketOf(v);
  std::lock_guard<std::mutex> lock(mu_);
  stat_.Add(v);
  ++buckets_[bucket];
}

RunningStat Histogram::stat() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stat_;
}

std::array<int64_t, Histogram::kBuckets> Histogram::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

double HistogramPercentile(
    const std::array<int64_t, Histogram::kBuckets>& buckets, double p) {
  int64_t total = 0;
  for (const int64_t c : buckets) total += c;
  if (total <= 0) return 0.0;
  const double clamped_p = Clamp(p, 0.0, 100.0);
  // Rank in (0, total]: the value below which ~p% of the mass lies.
  const double rank = clamped_p / 100.0 * static_cast<double>(total);
  int64_t cum = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double next = static_cast<double>(cum + buckets[i]);
    if (rank <= next) {
      const double lo = Histogram::BucketLowerBound(i);
      // The open-ended last bucket is treated as one more doubling.
      const double hi = i + 1 < Histogram::kBuckets
                            ? Histogram::BucketLowerBound(i + 1)
                            : 2.0 * lo;
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(buckets[i]);
      return lo + (hi - lo) * Clamp(frac, 0.0, 1.0);
    }
    cum += buckets[i];
  }
  return Histogram::BucketLowerBound(Histogram::kBuckets - 1);
}

double Histogram::Percentile(double p) const {
  std::array<int64_t, kBuckets> snapshot_buckets;
  RunningStat snapshot_stat;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_buckets = buckets_;
    snapshot_stat = stat_;
  }
  if (snapshot_stat.count() == 0) return 0.0;
  return Clamp(HistogramPercentile(snapshot_buckets, p), snapshot_stat.min(),
               snapshot_stat.max());
}

double MetricsRegistry::Snapshot::HistogramEntry::Percentile(double p) const {
  if (stat.count() == 0) return 0.0;
  return Clamp(HistogramPercentile(buckets, p), stat.min(), stat.max());
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stat_ = RunningStat();
  buckets_.fill(0);
}

std::string WithLabel(std::string_view base, std::string_view key,
                      std::string_view value) {
  std::string name;
  name.reserve(base.size() + key.size() + value.size() + 5);
  name.append(base);
  name.push_back('{');
  name.append(key);
  name.append("=\"");
  for (const char c : value) {
    if (c == '"' || c == '\\') name.push_back('\\');
    name.push_back(c);
  }
  name.append("\"}");
  return name;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: metric handles cached in function-local statics all
  // over the library must outlive every static destructor.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->stat(), h->buckets()});
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace pdr
