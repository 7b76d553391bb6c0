#include "util/env.hpp"

#include <cerrno>
#include <cstdlib>

#include "util/error.hpp"

namespace dlbench::util {

// A failed conversion leaves `end` at `raw`, which is non-empty here,
// so `*end == '\0'` rejects both non-numeric values and trailing junk.

std::int64_t env_i64(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw, &end, 10);
  DLB_CHECK(*end == '\0' && errno != ERANGE,
            name << "='" << raw << "' is not a 64-bit integer");
  return value;
}

double env_f64(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(raw, &end);
  DLB_CHECK(*end == '\0' && errno != ERANGE,
            name << "='" << raw << "' is not a number in double range");
  return value;
}

}  // namespace dlbench::util
