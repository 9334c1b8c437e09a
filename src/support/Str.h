//===- support/Str.h - Small string helpers ---------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting helpers shared by the log/trace pretty-printers, and the
/// number parser behind the tools' numeric command-line flags.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SUPPORT_STR_H
#define PUSHPULL_SUPPORT_STR_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pushpull {

/// Join the elements of \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// True iff \p S begins with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Split \p S on character \p Sep (no empty-trailing suppression).
std::vector<std::string> splitOn(const std::string &S, char Sep);

/// Parse \p Text as a decimal integer in [\p Min, \p Max].  Only digits
/// are accepted: an empty string, a sign, whitespace, trailing characters,
/// a value that overflows 64 bits and one outside the range all give
/// nullopt.
std::optional<uint64_t> parseUnsigned(std::string_view Text, uint64_t Min,
                                      uint64_t Max);

} // namespace pushpull

#endif // PUSHPULL_SUPPORT_STR_H
