#include "perfbench/driver/common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <regex>
#include <sstream>

namespace perfbench {

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index = next++;
  return index;
}

long peak_rss_kib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;  // KiB on Linux
}

CpuRotation::CpuRotation() : original_(sizeof(cpu_set_t)) {
  auto* mask = reinterpret_cast<cpu_set_t*>(original_.data());
  if (sched_getaffinity(0, sizeof(cpu_set_t), mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, mask)) cpus_.push_back(cpu);
  }
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  (void)sched_setaffinity(0, sizeof(cpu_set_t), &one);
}

void CpuRotation::restore() {
  if (cpus_.size() < 2) return;
  (void)sched_setaffinity(0, sizeof(cpu_set_t), reinterpret_cast<cpu_set_t*>(original_.data()));
}

std::string scrub_timings(const std::string& report) {
  // The same scrub the library's own parity tests apply.
  static const std::regex timing("[0-9]+(\\.[0-9]+)?(e-?[0-9]+)? s");
  static const std::regex stage_timing("(binding|scheduling|slices|solver) [0-9.e+-]+");
  return std::regex_replace(std::regex_replace(report, timing, "T s"), stage_timing, "$1 T");
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t hash) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << hash;
  return os.str();
}

const char* classify_outcome(const sdfmap::ServiceOutcome& outcome) {
  if (outcome.ok) return kOk;
  if (outcome.transport_failed) return kTransport;
  if (outcome.error.code == sdfmap::ServiceErrorCode::kShed) return kShed;
  return kError;
}

void SpanLog::add(const std::string& name, std::uint64_t op, Clock::time_point start,
                  Clock::time_point end, unsigned tid) {
  Span span;
  span.name = name;
  span.op = op;
  span.start_us = std::chrono::duration<double, std::micro>(start - origin_).count();
  span.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  span.tid = tid;
  const std::lock_guard<std::mutex> guard(mutex_);
  spans_.push_back(std::move(span));
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> guard(mutex_);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << std::fixed << std::setprecision(3) << "{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << s.start_us
        << ",\"dur\":" << s.dur_us << ",\"args\":{\"op\":" << s.op << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream os;
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0') << static_cast<int>(c);
          out += os.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
