#include "obs/telemetry.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace surfer {
namespace obs {

namespace {

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 2;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

/// Parses one "Vm...:   1234 kB" line value into bytes.
uint64_t ParseKbLine(const std::string& line) {
  const size_t colon = line.find(':');
  if (colon == std::string::npos) {
    return 0;
  }
  return std::strtoull(line.c_str() + colon + 1, nullptr, 10) * 1024;
}

}  // namespace

MemoryUsage ReadMemoryUsageFrom(const std::string& path) {
  MemoryUsage usage;
  std::ifstream status(path);
  if (!status.is_open()) {
    return usage;
  }
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      usage.rss_bytes = ParseKbLine(line);
      usage.available = true;
    } else if (line.rfind("VmHWM:", 0) == 0) {
      usage.peak_rss_bytes = ParseKbLine(line);
      usage.available = true;
    }
    if (usage.rss_bytes != 0 && usage.peak_rss_bytes != 0) {
      break;
    }
  }
  return usage;
}

MemoryUsage ReadMemoryUsage() {
  const MemoryUsage usage = ReadMemoryUsageFrom("/proc/self/status");
  if (!usage.available) {
    // Once per process: every sampler tick calls this, and a sandbox that
    // hides /proc hides it for the whole run.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      SURFER_LOG(kWarning)
          << "memory probe unavailable: /proc/self/status is missing or "
             "carries no Vm lines; RSS gauges and report fields suppressed";
    }
  }
  return usage;
}

TelemetryRecorder::TelemetryRecorder(TelemetryOptions options)
    : options_(std::move(options)) {}

TelemetryRecorder::~TelemetryRecorder() { Stop(); }

size_t TelemetryRecorder::RegisterGauge(std::string name, std::string unit,
                                        Provider provider, double ceiling,
                                        uint32_t period_multiple) {
  std::lock_guard<std::mutex> lock(mu_);
  Series series;
  series.name = std::move(name);
  series.unit = std::move(unit);
  series.ceiling = ceiling;
  series.period_multiple = period_multiple > 0 ? period_multiple : 1;
  series.provider = std::move(provider);
  series.ring.resize(RoundUpPowerOfTwo(
      options_.ring_capacity > 0 ? options_.ring_capacity : 2));
  series_.push_back(std::move(series));
  return series_.size() - 1;
}

void TelemetryRecorder::RegisterRssGauge() {
  if (ReadMemoryUsage().available) {
    RegisterGauge(
        "proc_rss_bytes", "bytes",
        [] { return static_cast<double>(ReadMemoryUsage().rss_bytes); },
        /*ceiling=*/0.0, /*period_multiple=*/16);
  }
}

void TelemetryRecorder::Start(Clock::time_point origin) {
  if (!options_.enabled || thread_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (series_.empty()) {
      return;
    }
  }
  origin_ = origin;
  origin_set_ = true;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { SamplerMain(); });
}

void TelemetryRecorder::Stop() {
  if (!thread_.joinable()) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void TelemetryRecorder::SamplerMain() {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.period_seconds));
  // Tick on an absolute schedule so provider cost does not stretch the
  // period; a tick that overruns simply skips ahead (no catch-up burst,
  // which would concentrate sampling load right when the host is busiest).
  auto next = Clock::now() + period;
  while (!stop_.load(std::memory_order_acquire)) {
    SampleNow();
    std::this_thread::sleep_until(next);
    const auto now = Clock::now();
    next += period;
    if (next < now) {
      next = now + period;
    }
  }
  // One final tick so short runs (and the stop edge) are represented.
  SampleNow();
}

void TelemetryRecorder::SampleNow() {
  if (!options_.enabled) {
    return;
  }
  if (!origin_set_) {
    // Synchronous use without Start (tests, the overhead microbenchmark):
    // the first tick anchors the origin. Cannot race the sampler thread —
    // its existence implies Start already set the origin.
    origin_ = Clock::now();
    origin_set_ = true;
  }
  const double t_us = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  SampleLocked(t_us);
}

void TelemetryRecorder::SampleLocked(double t_us) {
  for (Series& series : series_) {
    if (ticks_ % series.period_multiple != 0) {
      continue;
    }
    TelemetrySample& slot = series.ring[series.head & (series.ring.size() - 1)];
    slot.t_us = t_us;
    slot.value = series.provider();
    ++series.head;
  }
  ++ticks_;
}

double TelemetryRecorder::NowUs() const {
  if (!origin_set_) {
    return 0.0;
  }
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

uint64_t TelemetryRecorder::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

uint64_t TelemetryRecorder::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const Series& series : series_) {
    if (series.head > series.ring.size()) {
      dropped += series.head - series.ring.size();
    }
  }
  return dropped;
}

TelemetrySeries TelemetryRecorder::SnapshotSeriesLocked(
    const Series& series) const {
  TelemetrySeries out;
  out.name = series.name;
  out.unit = series.unit;
  out.ceiling = series.ceiling;
  out.samples_taken = series.head;
  const size_t capacity = series.ring.size();
  out.samples_dropped =
      series.head > capacity ? series.head - capacity : 0;
  const uint64_t retained = std::min<uint64_t>(series.head, capacity);
  out.samples.reserve(retained);
  for (uint64_t i = series.head - retained; i < series.head; ++i) {
    out.samples.push_back(series.ring[i & (capacity - 1)]);
  }
  return out;
}

std::vector<TelemetrySeries> TelemetryRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TelemetrySeries> out;
  out.reserve(series_.size());
  for (const Series& series : series_) {
    out.push_back(SnapshotSeriesLocked(series));
  }
  return out;
}

TelemetrySeriesSummary SummarizeTelemetrySeries(
    const std::vector<TelemetrySample>& samples) {
  TelemetrySeriesSummary summary;
  if (samples.empty()) {
    return summary;
  }
  summary.min = samples[0].value;
  summary.max = samples[0].value;
  summary.peak_t_us = samples[0].t_us;
  double total = 0.0;
  std::vector<double> values;
  values.reserve(samples.size());
  for (const TelemetrySample& sample : samples) {
    total += sample.value;
    values.push_back(sample.value);
    summary.min = std::min(summary.min, sample.value);
    if (sample.value > summary.max) {
      summary.max = sample.value;
      summary.peak_t_us = sample.t_us;
    }
  }
  summary.mean = total / static_cast<double>(samples.size());
  // Exact p99 over the retained window (nearest-rank): the window is small
  // and already in memory, so no histogram estimate is needed.
  const size_t rank =
      std::min(values.size() - 1,
               static_cast<size_t>(0.99 * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  summary.p99 = values[rank];
  return summary;
}

JsonValue TelemetryRecorder::ToJson() const {
  const std::vector<TelemetrySeries> snapshot = Snapshot();
  JsonValue block = JsonValue::MakeObject();
  block.Set("period_seconds", options_.period_seconds);
  block.Set("ring_capacity", static_cast<uint64_t>(
                                 RoundUpPowerOfTwo(options_.ring_capacity)));
  block.Set("samples_taken", samples_taken());
  block.Set("samples_dropped", total_dropped());
  JsonValue series_array = JsonValue::MakeArray();
  for (const TelemetrySeries& series : snapshot) {
    const TelemetrySeriesSummary summary =
        SummarizeTelemetrySeries(series.samples);
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("name", series.name);
    entry.Set("unit", series.unit);
    if (series.ceiling > 0.0) {
      entry.Set("ceiling", series.ceiling);
    }
    entry.Set("count", static_cast<uint64_t>(series.samples.size()));
    entry.Set("samples_taken", series.samples_taken);
    entry.Set("samples_dropped", series.samples_dropped);
    entry.Set("min", summary.min);
    entry.Set("mean", summary.mean);
    entry.Set("max", summary.max);
    entry.Set("p99", summary.p99);
    entry.Set("peak_t_us", summary.peak_t_us);
    // All-zero series (idle channels, never-blocked barriers) keep their
    // summary but skip the sample array; readers treat a missing "samples"
    // as "flat zero the whole window".
    if (summary.min != 0.0 || summary.max != 0.0) {
      JsonValue samples = JsonValue::MakeArray();
      for (const TelemetrySample& sample : series.samples) {
        JsonValue pair = JsonValue::MakeArray();
        pair.Append(sample.t_us);
        pair.Append(sample.value);
        samples.Append(std::move(pair));
      }
      entry.Set("samples", std::move(samples));
    }
    series_array.Append(std::move(entry));
  }
  block.Set("series", std::move(series_array));
  return block;
}

void TelemetryRecorder::ExportCounterEvents(Tracer* tracer,
                                            double offset_us) const {
  if (tracer == nullptr || !Tracer::CompiledIn()) {
    return;
  }
  for (const TelemetrySeries& series : Snapshot()) {
    const TelemetrySeriesSummary summary =
        SummarizeTelemetrySeries(series.samples);
    if (summary.min == 0.0 && summary.max == 0.0) {
      continue;  // flat-zero series would only clutter the trace view
    }
    for (const TelemetrySample& sample : series.samples) {
      tracer->RecordCounter(TraceClock::kWall, series.name, "telemetry",
                            sample.t_us + offset_us, /*tid=*/0, sample.value);
    }
  }
}

}  // namespace obs
}  // namespace surfer
