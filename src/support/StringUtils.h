//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the Descend reproduction.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_SUPPORT_STRINGUTILS_H
#define DESCEND_SUPPORT_STRINGUTILS_H

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace descend {

/// printf-style formatting into a std::string.
std::string strfmt(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins the elements of \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts, std::string_view Sep);

/// Renders each element with operator<< and joins with \p Sep.
template <typename Range>
std::string joinMapped(const Range &Xs, std::string_view Sep) {
  std::ostringstream OS;
  bool First = true;
  for (const auto &X : Xs) {
    if (!First)
      OS << Sep;
    First = false;
    OS << X;
  }
  return OS.str();
}

/// Replaces every occurrence of \p From in \p S by \p To.
std::string replaceAll(std::string S, std::string_view From,
                       std::string_view To);

/// Splits \p S at \p Sep (no empty-token suppression).
std::vector<std::string> split(std::string_view S, char Sep);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view S);

/// Escapes \p S for the inside of a JSON string literal: `"` and `\`
/// get a backslash, every other control character becomes `\u00XX`.
std::string jsonEscape(std::string_view S);

} // namespace descend

#endif // DESCEND_SUPPORT_STRINGUTILS_H
