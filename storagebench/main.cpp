// storagebench: one end-to-end benchmark of the storage stack.
//
//   storagebench --workload io_mirror|lookup_churn|reconfig --seed N
//                --seconds S --trace 0|1 [--trace-out FILE]
//   storagebench --print-script --seed N
//
// Prints one JSON object as its last line: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics, --trace
// 1 the per-layer metrics and writes the recorded spans to --trace-out.
// See storagebench/README.md for the workloads and metrics.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>
#include <string_view>

#include "storagebench/common.hpp"

// --- Allocation counting: every operator new of this process lands here ---

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t sb::thread_allocs() noexcept { return t_allocs; }

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "storagebench: %s\nusage: storagebench --workload "
               "io_mirror|lookup_churn|reconfig --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n       storagebench "
               "--print-script --seed N\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    usage(std::string(flag) + " needs a non-negative integer, got '" + text +
          "'");
  }
  return v;
}

void print_json_string(std::string_view s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  sb::Args args;
  bool print_script = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-script") {
      print_script = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64("--seconds", value);
      if (s == 0 || s > 3600) usage("--seconds must be in [1, 3600]");
      args.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (print_script) {
    sb::print_reconfig_script(args.seed);
    return 0;
  }
  if (!have_seconds || !have_trace) usage("--seconds and --trace are required");

  sb::Report (*run)(const sb::Args&, sb::Tracer&) = nullptr;
  if (args.workload == "io_mirror") {
    run = sb::run_io_mirror;
  } else if (args.workload == "lookup_churn") {
    run = sb::run_lookup_churn;
  } else if (args.workload == "reconfig") {
    run = sb::run_reconfig;
  } else {
    usage("unknown workload '" + args.workload + "'");
  }

  sb::Tracer tracer(args.trace);
  sb::Report report;
  try {
    report = run(args, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "storagebench: %s aborted: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  if (args.trace) {
    report.add("failed_frac", report.failed_frac(), "ratio");
    if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
      std::fprintf(stderr, "storagebench: cannot write spans to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  for (const auto& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "storagebench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  for (const auto& error : report.errors) {
    std::fprintf(stderr, "storagebench: failure: %s\n", error.c_str());
  }

  // Human-readable lines first, the JSON result last.
  for (const auto& m : report.metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& m : report.metrics) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
