//===- tools/ToolCommon.h - Shared CLI helpers -----------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal option parsing shared by the command-line tools.
///
//===----------------------------------------------------------------------===//

#ifndef TOOLS_TOOLCOMMON_H
#define TOOLS_TOOLCOMMON_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

namespace alive {

/// Parses "-flag", "-key=value" and positional arguments.
class ArgParser {
public:
  ArgParser(int Argc, char **Argv) {
    for (int I = 1; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A.size() >= 2 && A[0] == '-') {
        std::string Key = A.substr(1);
        if (!Key.empty() && Key[0] == '-')
          Key = Key.substr(1);
        size_t Eq = Key.find('=');
        if (Eq == std::string::npos)
          Flags[Key] = "";
        else
          Flags[Key.substr(0, Eq)] = Key.substr(Eq + 1);
      } else {
        Positional.push_back(A);
      }
    }
  }

  bool has(const std::string &Key) const { return Flags.count(Key) != 0; }
  std::string get(const std::string &Key, const std::string &Default = "") const {
    auto It = Flags.find(Key);
    return It == Flags.end() || It->second.empty() ? Default : It->second;
  }
  uint64_t getInt(const std::string &Key, uint64_t Default) const {
    auto It = Flags.find(Key);
    return It == Flags.end() || It->second.empty()
               ? Default
               : std::stoull(It->second);
  }
  const std::vector<std::string> &positional() const { return Positional; }

  /// The first flag (in name order) outside \p Known, or "" when every
  /// flag is known.
  std::string firstUnknown(const std::set<std::string> &Known) const {
    for (const auto &KV : Flags)
      if (!Known.count(KV.first))
        return KV.first;
    return "";
  }

private:
  std::map<std::string, std::string> Flags;
  std::vector<std::string> Positional;
};

/// Renders live progress on stderr. On a TTY the line is rewritten in
/// place (carriage return + erase-to-end) so a long campaign occupies one
/// screen line; when stderr is redirected — CI logs, `2>file` — it falls
/// back to one plain line per update, because control characters turn
/// captured logs into an unreadable smear.
class ProgressPrinter {
public:
  ProgressPrinter() : IsTTY(isatty(fileno(stderr)) != 0) {}

  void update(const std::string &Line) {
    if (IsTTY) {
      std::fprintf(stderr, "\r\x1b[K%s", Line.c_str());
      std::fflush(stderr);
      Dirty = true;
    } else {
      std::fprintf(stderr, "%s\n", Line.c_str());
    }
  }

  /// Terminates an in-place line (no-op when nothing is pending), so
  /// later output starts on a fresh line. Call once after the run.
  void finish() {
    if (Dirty) {
      std::fputc('\n', stderr);
      Dirty = false;
    }
  }

  bool tty() const { return IsTTY; }

private:
  bool IsTTY;
  bool Dirty = false;
};

} // namespace alive

#endif // TOOLS_TOOLCOMMON_H
