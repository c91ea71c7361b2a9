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
/// plane's per-point streams and the feedback energy gate.
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

} // namespace alive

#endif // SUPPORT_HASH_H
