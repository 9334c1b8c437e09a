//===- tools/CliArgs.h - Numeric command-line flags -------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser behind every numeric flag of pprun, ppfuzz, ppstress
/// and ppcheck.  A missing, malformed, overflowing or out-of-range value
/// prints a diagnostic and exits 2; it is never truncated or wrapped.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_TOOLS_CLIARGS_H
#define PUSHPULL_TOOLS_CLIARGS_H

#include "support/Str.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace pushpull {

/// Upper bound on every thread and worker count a tool accepts.
constexpr uint64_t MaxThreadsFlag = 256;

/// If argv[\p I] is \p Flag, consume its value (advancing \p I), check it
/// is a decimal integer in [\p Min, \p Max] and store it in \p Out.
/// Returns false when argv[\p I] is some other argument.
template <typename T>
bool numericFlag(int Argc, char **Argv, int &I, const char *Flag, T &Out,
                 uint64_t Min = 0,
                 uint64_t Max = std::numeric_limits<T>::max()) {
  if (std::strcmp(Argv[I], Flag) != 0)
    return false;
  const char *Value = I + 1 < Argc ? Argv[++I] : nullptr;
  std::optional<uint64_t> N =
      Value ? parseUnsigned(Value, Min, Max) : std::nullopt;
  if (!N) {
    std::fprintf(stderr, "error: %s needs an integer in [%llu, %llu]", Flag,
                 static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max));
    if (Value)
      std::fprintf(stderr, ", got '%s'", Value);
    std::fputc('\n', stderr);
    std::exit(2);
  }
  Out = static_cast<T>(*N);
  return true;
}

} // namespace pushpull

#endif // PUSHPULL_TOOLS_CLIARGS_H
