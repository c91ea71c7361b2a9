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

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
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
  /// The value of -\p Key as a T (\p Default when unset). Only plain
  /// decimal digits for a value from \p Min to T's maximum are accepted:
  /// a sign, trailing junk or an out-of-range value prints an error naming
  /// the flag and exits 1.
  template <typename T = uint64_t>
  T getInt(const std::string &Key, std::type_identity_t<T> Default,
           std::type_identity_t<T> Min = 0) const {
    std::string V = get(Key);
    if (V.empty())
      return Default;
    uint64_t N = 0;
    auto [End, Ec] = std::from_chars(V.data(), V.data() + V.size(), N);
    if (Ec != std::errc() || End != V.data() + V.size() || N < Min ||
        N > std::numeric_limits<T>::max())
      reject(Key, V,
             "an integer from " + std::to_string(Min) + " to " +
                 std::to_string(std::numeric_limits<T>::max()));
    return (T)N;
  }

  /// The value of -\p Key as seconds (\p Default when unset): a finite,
  /// non-negative decimal such as 2 or 0.5. Anything else prints an error
  /// naming the flag and exits 1.
  double getSeconds(const std::string &Key, double Default) const {
    std::string V = get(Key);
    if (V.empty())
      return Default;
    double D = 0;
    auto [End, Ec] = std::from_chars(V.data(), V.data() + V.size(), D);
    if (Ec != std::errc() || End != V.data() + V.size() || V[0] == '-' ||
        !std::isfinite(D))
      reject(Key, V, "a non-negative number of seconds");
    return D;
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
  [[noreturn]] static void reject(const std::string &Key,
                                  const std::string &Value,
                                  const std::string &Expected) {
    std::fprintf(stderr, "error: -%s expects %s, got '%s'\n", Key.c_str(),
                 Expected.c_str(), Value.c_str());
    std::exit(1);
  }

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
