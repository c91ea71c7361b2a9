//===- support/Hash.h - Platform-stable string hash ------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a, the one string hash of the project. Unlike std::hash its
/// value is fixed across standard libraries and platforms, so it can key
/// persisted and reported data: the verdict cache's key header, the
/// profile's query key, the checkpoint's module fingerprint, the fault
/// plane's per-point streams and the feedback energy gate. Next to it,
/// splitmix64, the one integer mixer: the energy gate hashes with it and
/// the fault plane's probability streams step it.
///
/// The module fingerprint and the fault streams were first written with
/// the decimal offset basis missing its last digit. Checkpoints on disk and
/// pinned fault schedules depend on those values, so those two callers
/// pass ShortFnvBasis; everything else uses the standard basis.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_HASH_H
#define SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace alive {

constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t ShortFnvBasis = 1469598103934665603ULL;

inline uint64_t fnv1a64(std::string_view S, uint64_t H = FnvOffsetBasis) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// SplitMix64's output for state \p X, a strong 64-bit finalizer.
inline uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// One step of the splitmix64 stream whose state is \p State.
inline uint64_t splitmix64Next(uint64_t &State) {
  uint64_t X = State;
  State += 0x9E3779B97F4A7C15ULL;
  return splitmix64(X);
}

} // namespace alive

#endif // SUPPORT_HASH_H
