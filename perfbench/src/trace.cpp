#include "trace.hpp"

#include <cstdio>

namespace perfbench {

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t base = ~std::uint64_t{0};
  for (const Span& s : spans_) base = s.t0_ns < base ? s.t0_ns : base;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // One track per sample/request id, so a request's spans line up.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"layer\":%d}}\n",
                 i ? "," : "", s.name, static_cast<unsigned long long>(s.id),
                 static_cast<double>(s.t0_ns - base) * 1e-3, s.us(), i,
                 static_cast<long long>(s.parent), s.layer);
  }
  std::fprintf(f, "],\"dropped\":%llu}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
