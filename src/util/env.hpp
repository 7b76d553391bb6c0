#pragma once

// Validated numeric environment knobs (the DLB_* variables in KNOBS.md).
//
// An unset or empty variable yields the caller's fallback. A value
// that is not one complete number, or that does not fit the type,
// throws dlbench::Error naming the variable and its value, so a typo
// such as DLB_STEP_CAP=1O fails loudly instead of running as 1.

#include <cstdint>

namespace dlbench::util {

/// Base-10 integer value of `name`, or `fallback` when unset/empty.
std::int64_t env_i64(const char* name, std::int64_t fallback);

/// Floating-point value of `name` (strtod syntax), or `fallback` when
/// unset/empty.
double env_f64(const char* name, double fallback);

}  // namespace dlbench::util
