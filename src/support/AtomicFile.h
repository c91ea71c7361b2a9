//===- support/AtomicFile.h - Durable atomic file replace ------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way this codebase writes an artifact: stage the content in
/// `<path>.tmp`, fsync it, then rename() over the destination. A reader
/// (or a -replay, or a -resume) therefore only ever sees the old bytes or
/// the new bytes — a SIGKILL or ENOSPC mid-write can never leave a torn
/// file under the final name. Checkpoint, Forensics manifests and
/// -stats-json reports all route through here, and read those artifacts
/// back through readWholeFile().
///
/// Each call names a FaultPlane prefix, arming three injection points
/// around the syscall edges: `<prefix>.write`, `<prefix>.fsync`,
/// `<prefix>.rename`. An injected fault fails exactly like the real
/// syscall would (ENOSPC for write, EIO for fsync/rename), so the
/// degradation paths get exercised by the same code the real faults take.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_ATOMICFILE_H
#define SUPPORT_ATOMICFILE_H

#include <string>

namespace alive {

/// Atomically (and durably) replaces \p Path with \p Content.
/// \p FaultPrefix names the FaultPlane point family guarding this writer
/// ("checkpoint", "forensics", "report"). On failure \returns false and
/// fills \p Error with the stage, path and errno text; the staged .tmp
/// file is removed.
bool writeFileAtomicDurable(const std::string &Path,
                            const std::string &Content,
                            const char *FaultPrefix, std::string &Error);

/// True when \p Error came from an out-of-space condition (real ENOSPC or
/// an injected one) — the trigger for the "stop writing artifacts, keep
/// fuzzing" degradation.
bool isNoSpaceError(const std::string &Error);

/// Reads all of \p Path into \p Out. On failure \returns false and sets
/// \p Error to "cannot read '<path>'".
bool readWholeFile(const std::string &Path, std::string &Out,
                   std::string &Error);

} // namespace alive

#endif // SUPPORT_ATOMICFILE_H
