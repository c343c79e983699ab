//===- support/StringUtils.cpp --------------------------------------------===//

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace descend;

std::string descend::strfmt(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (Needed > 0) {
    Out.resize(Needed);
    std::vsnprintf(Out.data(), Needed + 1, Fmt, Args);
  }
  va_end(Args);
  return Out;
}

std::string descend::join(const std::vector<std::string> &Parts,
                          std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I)
      Out.append(Sep);
    Out.append(Parts[I]);
  }
  return Out;
}

std::string descend::replaceAll(std::string S, std::string_view From,
                                std::string_view To) {
  if (From.empty())
    return S;
  size_t Pos = 0;
  while ((Pos = S.find(From, Pos)) != std::string::npos) {
    S.replace(Pos, From.size(), To);
    Pos += To.size();
  }
  return S;
}

std::vector<std::string> descend::split(std::string_view S, char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Out.emplace_back(S.substr(Start));
      return Out;
    }
    Out.emplace_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view descend::trim(std::string_view S) {
  auto IsSpace = [](char C) {
    return C == ' ' || C == '\t' || C == '\n' || C == '\r';
  };
  while (!S.empty() && IsSpace(S.front()))
    S.remove_prefix(1);
  while (!S.empty() && IsSpace(S.back()))
    S.remove_suffix(1);
  return S;
}

std::string descend::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out;
}
