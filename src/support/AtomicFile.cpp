//===- support/AtomicFile.cpp - Durable atomic file replace ----------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"

#include "support/FaultPlane.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace alive;

namespace {

std::string faultPoint(const char *Prefix, const char *Stage) {
  return std::string(Prefix) + "." + Stage;
}

} // namespace

bool alive::writeFileAtomicDurable(const std::string &Path,
                                   const std::string &Content,
                                   const char *FaultPrefix,
                                   std::string &Error) {
  std::string Tmp = Path + ".tmp";
  auto Fail = [&](const char *Stage, int Err) {
    Error = std::string(Stage) + " '" + Tmp + "' failed: " +
            std::strerror(Err);
    ::unlink(Tmp.c_str());
    return false;
  };

  int FD = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (FD < 0) {
    Error = "cannot create '" + Tmp + "': " + std::strerror(errno);
    return false;
  }

  // Short writes are legal (signals, quotas): loop until done.
  size_t Off = 0;
  bool Injected = faultAt(faultPoint(FaultPrefix, "write").c_str());
  while (!Injected && Off < Content.size()) {
    ssize_t W = ::write(FD, Content.data() + Off, Content.size() - Off);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      int Err = errno;
      ::close(FD);
      return Fail("write to", Err);
    }
    Off += (size_t)W;
  }
  if (Injected) {
    ::close(FD);
    return Fail("write to", ENOSPC);
  }

  if (faultAt(faultPoint(FaultPrefix, "fsync").c_str())) {
    ::close(FD);
    return Fail("fsync of", EIO);
  }
  if (::fsync(FD) != 0) {
    int Err = errno;
    ::close(FD);
    return Fail("fsync of", Err);
  }
  if (::close(FD) != 0)
    return Fail("close of", errno);

  if (faultAt(faultPoint(FaultPrefix, "rename").c_str()))
    return Fail("rename of", EIO);
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    int Err = errno;
    Error = "cannot rename '" + Tmp + "' to '" + Path +
            "': " + std::strerror(Err);
    ::unlink(Tmp.c_str());
    return false;
  }
  return true;
}

bool alive::readWholeFile(const std::string &Path, std::string &Out,
                          std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot read '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool alive::isNoSpaceError(const std::string &Error) {
  return Error.find(std::strerror(ENOSPC)) != std::string::npos ||
         Error.find("ENOSPC") != std::string::npos;
}
