#include "storagebench/common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace sb {

void fill_payload(std::uint64_t seed, std::uint64_t block,
                  std::uint64_t version, std::span<std::uint8_t> out) {
  std::uint64_t state = mix64(seed ^ mix64(block * 0x100000001b3ULL + version));
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    state += 0x9e3779b97f4a7c15ULL;
    const std::uint64_t word = mix64(state);
    std::memcpy(out.data() + i, &word, 8);
  }
  for (; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(mix64(state + i));
  }
}

Zipf::Zipf(std::uint64_t n, double skew) : cdf_(n) {
  double sum = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::uint64_t Zipf::sample(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::uint64_t>(
      static_cast<std::uint64_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::fail(std::string what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(what));
}

double quantile(const std::vector<const Samples*>& sets, double q) {
  // A merge buffer of the full capacity keeps the RSS independent of how
  // many samples were taken.
  std::size_t capacity = 0;
  for (const Samples* set : sets) capacity += set->capacity();
  std::vector<float> merged(capacity);
  std::size_t n = 0;
  for (const Samples* set : sets) {
    const auto values = set->values();
    std::copy(values.begin(), values.end(), merged.begin() + n);
    n += values.size();
  }
  if (n == 0) return 0.0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, n) - 1;
  const auto begin = merged.begin();
  std::nth_element(begin, begin + static_cast<std::ptrdiff_t>(idx),
                   begin + static_cast<std::ptrdiff_t>(n));
  return merged[idx];
}

Window make_window(double ops_per_s, const std::vector<const Samples*>& reads,
                   const std::vector<const Samples*>& writes) {
  return {ops_per_s, quantile(reads, 0.5), quantile(reads, 0.99),
          quantile(writes, 0.5), quantile(writes, 0.95)};
}

void add_end_to_end(Report& report, std::vector<double> setups,
                    const std::vector<Window>& windows) {
  auto median_of = [&](double Window::*field) {
    std::vector<double> values;
    for (const Window& w : windows) values.push_back(w.*field);
    return median(std::move(values));
  };
  report.add("setup_s", median(std::move(setups)), "s");
  report.add("ops_per_s", median_of(&Window::ops_per_s), "1/s");
  report.add("read_p50_us", median_of(&Window::read_p50_us), "us");
  report.add("read_p99_us", median_of(&Window::read_p99_us), "us");
  report.add("write_p50_us", median_of(&Window::write_p50_us), "us");
  report.add("write_p95_us", median_of(&Window::write_p95_us), "us");
  report.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

SpanLog::SpanLog(unsigned thread, std::size_t capacity)
    : next_id_((static_cast<std::uint64_t>(thread) << 40) + 1) {
  spans_.reserve(capacity);
}

void SpanLog::end(const char* name, std::uint64_t id, std::uint64_t parent,
                  std::uint64_t request, std::int64_t start_ns) noexcept {
  const std::int64_t end = now_ns();
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, id, parent, request, start_ns, end});
}

SpanLog* Tracer::new_log(std::size_t capacity) {
  if (!enabled_) return nullptr;
  logs_.push_back(std::make_unique<SpanLog>(
      static_cast<unsigned>(logs_.size() + 1), capacity));
  return logs_.back().get();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "name,start_ns,end_ns,span_id,parent_id,request_id\n";
  std::uint64_t dropped = 0;
  for (const auto& log : logs_) {
    dropped += log->dropped();
    for (const Span& s : log->spans()) {
      out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.id
          << ',' << s.parent << ',' << s.request << '\n';
    }
  }
  out << "# dropped," << dropped << '\n';
  return static_cast<bool>(out.flush());
}

namespace {

template <typename F>
void for_family(const rds::metrics::Snapshot& snap, std::string_view family,
                F&& f) {
  for (const auto& sample : snap.samples) {
    if (sample.name == family) f(sample);
  }
}

}  // namespace

std::uint64_t RegistryDelta::counter(std::string_view family) const {
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  for_family(before_, family,
             [&](const auto& s) { before += s.counter_value; });
  for_family(after_, family,
             [&](const auto& s) { after += s.counter_value; });
  return after - before;
}

std::pair<std::uint64_t, std::uint64_t> RegistryDelta::histogram(
    std::string_view family) const {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  for_family(after_, family, [&](const auto& s) {
    count += s.histogram.count;
    sum += s.histogram.sum;
  });
  for_family(before_, family, [&](const auto& s) {
    count -= s.histogram.count;
    sum -= s.histogram.sum;
  });
  return {count, sum};
}

}  // namespace sb
