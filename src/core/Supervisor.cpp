//===- core/Supervisor.cpp - Multi-process shard lease supervisor ----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Supervisor.h"

#include "support/FaultPlane.h"
#include "support/SignalGuard.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <new>
#include <thread>

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace alive;

namespace {

/// Shared stop flag at the head of the control page.
struct Control {
  std::atomic<uint32_t> Stop;
};

/// Per-shard slot in the MAP_SHARED control page. A running child is the
/// only writer of its slot; the parent only reads (and re-initializes Cur
/// between spawns, when no child is alive to race with).
struct HeartbeatSlot {
  std::atomic<uint64_t> Cur;  ///< offset in flight; IdleOffset between
  std::atomic<uint64_t> Next; ///< the shard's cursor: next offset to run
  std::atomic<uint64_t> Beat; ///< liveness tick for the wedge detector
};

/// The slot array starts at the first HeartbeatSlot-aligned offset past the
/// Control block: the 8-byte atomics must not sit right after a 4-byte one.
constexpr size_t SlotsOffset = (sizeof(Control) + alignof(HeartbeatSlot) - 1) /
                               alignof(HeartbeatSlot) *
                               alignof(HeartbeatSlot);

Control *control(void *Page) { return static_cast<Control *>(Page); }

HeartbeatSlot *slots(void *Page) {
  return reinterpret_cast<HeartbeatSlot *>(static_cast<char *>(Page) +
                                           SlotsOffset);
}

/// A beat-silent child is only wedged if it also sat idle on the CPU: it
/// must have burned less than this fraction of the silent wall-clock
/// window. 5% spares a mid-solver-query child even at fanout 16 on one
/// core (each child still gets ~6% of the CPU), while a deadlocked or
/// syscall-hung child burns effectively nothing.
constexpr double WedgeMinCpuFraction = 0.05;

/// CPU seconds (user + system) consumed by \p Pid, from /proc/<pid>/stat.
/// Returns -1 when unreadable (child already gone, or no procfs) — the
/// caller falls back to beat-silence-only wedge detection.
double childCpuSeconds(pid_t Pid) {
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/proc/%d/stat", (int)Pid);
  FILE *F = std::fopen(Path, "r");
  if (!F)
    return -1;
  char Buf[1024];
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  Buf[N] = 0;
  // comm (field 2) may contain spaces and parens; the fixed-format fields
  // resume after the LAST ')'. utime/stime are fields 14/15 overall, i.e.
  // the 11th/12th after the closing paren's state character.
  const char *P = std::strrchr(Buf, ')');
  if (!P)
    return -1;
  char State;
  long Ppid, Pgrp, Session, Tty, Tpgid;
  unsigned long Flags, Minflt, Cminflt, Majflt, Cmajflt, Utime, Stime;
  if (std::sscanf(P + 1, " %c %ld %ld %ld %ld %ld %lu %lu %lu %lu %lu %lu %lu",
                  &State, &Ppid, &Pgrp, &Session, &Tty, &Tpgid, &Flags,
                  &Minflt, &Cminflt, &Majflt, &Cmajflt, &Utime, &Stime) != 13)
    return -1;
  long Hz = sysconf(_SC_CLK_TCK);
  return Hz > 0 ? double(Utime + Stime) / double(Hz) : -1;
}

} // namespace

Supervisor::Supervisor(SupervisorConfig C, ShardBody B)
    : Cfg(C), Body(std::move(B)) {}

Supervisor::~Supervisor() {
  if (Page)
    munmap(Page, PageSize);
}

bool Supervisor::init(unsigned N, std::string &Error) {
  PageSize = SlotsOffset + N * sizeof(HeartbeatSlot);
  void *Raw = mmap(nullptr, PageSize, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (Raw == MAP_FAILED || faultAt("supervisor.mmap")) {
    if (Raw != MAP_FAILED)
      munmap(Raw, PageSize);
    Error = "-fanout: cannot map the shared heartbeat page";
    return false;
  }
  Page = Raw;
  Control *Ctl = new (control(Page)) Control;
  Ctl->Stop.store(0, std::memory_order_relaxed);
  HeartbeatSlot *HB = slots(Page);
  Leases.resize(N);
  for (unsigned I = 0; I != N; ++I) {
    Leases[I].Index = I;
    Leases[I].St = Lease::State::Done;
    new (&HB[I]) HeartbeatSlot;
    HB[I].Cur.store(IdleOffset, std::memory_order_relaxed);
    HB[I].Next.store(0, std::memory_order_relaxed);
    HB[I].Beat.store(0, std::memory_order_relaxed);
  }
  return true;
}

uint64_t Supervisor::cursor(unsigned I) const {
  return slots(Page)[I].Next.load(std::memory_order_relaxed);
}

void Supervisor::appendNote(Lease &L, const std::string &Msg) {
  if (!L.Note.empty())
    L.Note += "; ";
  L.Note += Msg;
}

void Supervisor::markLost(Lease &L, const std::string &Why) {
  L.St = Lease::State::Lost;
  appendNote(L, "shard " + std::to_string(L.Index) + " lost: " + Why);
}

bool Supervisor::backOff(Lease &L, double Now, const std::string &Why) {
  const double Delay = std::ldexp(Cfg.FirstDelaySeconds, (int)L.Restarts);
  if (++L.Restarts >= Cfg.RestartBudget) {
    markLost(L, std::to_string(L.Restarts) +
                    " failure(s) without progress (last: " + Why + ")");
    return false;
  }
  L.St = Lease::State::Pending;
  L.RestartAt = Now + Delay;
  return true;
}

bool Supervisor::spawn(Lease &L, double Now) {
  HeartbeatSlot &S = slots(Page)[L.Index];
  S.Cur.store(IdleOffset, std::memory_order_relaxed);
  // Injected fork failure is evaluated in the parent so its counter
  // persists across the whole campaign (a respawn sees the incremented
  // call count, exactly like a real transient fork failure would recur).
  if (faultAt("supervisor.fork"))
    return false;
  pid_t Pid = fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    // ------- child: run the lease body and nothing else. _exit skips
    // static destructors and parent-inherited stdio flushes.
    ShardContext Ctx;
    Ctx.Index = L.Index;
    Ctx.Lo = L.Lo;
    Ctx.Hi = L.Hi;
    Ctx.Skip = &L.Skip;
    Ctx.Cur = &S.Cur;
    Ctx.Next = &S.Next;
    Ctx.Beat = &S.Beat;
    Ctx.Stop = &control(Page)->Stop;
    _exit(Body ? Body(Ctx) : 0);
  }
  // ------- parent
  L.Pid = Pid;
  L.St = Lease::State::Running;
  L.SpawnedAt = Now;
  L.LastBeat = S.Beat.load(std::memory_order_relaxed);
  L.LastBeatAt = Now;
  L.CpuAtBeat = 0; // fresh process, fresh CPU clock
  // Injected chaos kill: also parent-side, also persistent counters —
  // `supervisor.kill:nth:1` kills exactly the first child ever spawned,
  // once, and every respawn after it survives.
  if (faultAt("supervisor.kill")) {
    kill(Pid, SIGKILL);
    L.KilledByUs = true;
  }
  return true;
}

SupervisorOutcome Supervisor::run(const std::vector<LeaseSlice> &Slices,
                                   Timer &Total) {
  SupervisorOutcome Out;
  Control *Ctl = control(Page);
  HeartbeatSlot *HB = slots(Page);
  Ctl->Stop.store(0, std::memory_order_relaxed);
  // Re-aim each slice's lease; the restart count and the cursor at the
  // last death carry over from earlier runs.
  for (const LeaseSlice &S : Slices) {
    Lease &L = Leases[S.Index];
    L.Lo = S.Lo;
    L.Hi = S.Hi;
    L.St = Lease::State::Pending;
    L.RestartAt = 0;
    L.DeathsAt.clear();
    L.Skip.clear();
    L.Note.clear();
    L.DeadSeconds = 0;
  }

  for (;;) {
    double Now = Total.seconds();
    if (ShouldStop && !Ctl->Stop.load(std::memory_order_relaxed) &&
        ShouldStop())
      Ctl->Stop.store(1, std::memory_order_relaxed);
    const bool Stopping = Ctl->Stop.load(std::memory_order_relaxed) != 0;

    bool AllSettled = true;
    for (Lease &L : Leases) {
      if (L.St == Lease::State::Done || L.St == Lease::State::Lost)
        continue;

      if (L.St == Lease::State::Pending) {
        // A stopping campaign does not wait out backoff gates: the
        // lease's last checkpoint already holds everything harvestable.
        if (Stopping) {
          L.St = Lease::State::Done;
          continue;
        }
        AllSettled = false;
        if (Now < L.RestartAt)
          continue;
        if (spawn(L, Now))
          continue;
        ++Out.ForkFailures;
        backOff(L, Now, "fork failed");
        continue;
      }

      // Running.
      AllSettled = false;
      uint64_t Beat = HB[L.Index].Beat.load(std::memory_order_relaxed);
      if (Beat != L.LastBeat) {
        L.LastBeat = Beat;
        L.LastBeatAt = Now;
        if (double Cpu = childCpuSeconds(L.Pid); Cpu >= 0)
          L.CpuAtBeat = Cpu;
      } else if (Cfg.HeartbeatSeconds > 0 && !L.KilledByUs &&
                 Now - L.LastBeatAt > Cfg.HeartbeatSeconds) {
        // Beat-silent past the deadline — a wedge suspect. The beat only
        // ticks between iterations, so one legitimately long solver query
        // (or plain CPU contention at high fanout) looks identical to a
        // deadlock from here. Second signal: the child's CPU clock. A
        // working child burns CPU through the silent window; a wedged one
        // (deadlock, hung syscall, the chaos sleep hook) burns ~nothing.
        double Cpu = childCpuSeconds(L.Pid);
        if (Cpu >= 0 && Cpu - L.CpuAtBeat >=
                            WedgeMinCpuFraction * (Now - L.LastBeatAt)) {
          // Mid-query, not wedged: extend the lease by resetting the
          // silence clock to the evidence of progress just observed.
          L.CpuAtBeat = Cpu;
          L.LastBeatAt = Now;
          ++Out.LeaseExtensions;
        } else {
          kill(L.Pid, SIGKILL);
          L.KilledByUs = true;
          ++Out.Wedges;
          appendNote(L, "shard " + std::to_string(L.Index) +
                            " wedged (no heartbeat for " +
                            std::to_string(Cfg.HeartbeatSeconds) +
                            "s, no CPU progress), killed");
        }
      }

      int Status = 0;
      pid_t R = waitpid(L.Pid, &Status, WNOHANG);
      if (R == 0)
        continue;
      L.Pid = -1;
      const bool External = L.KilledByUs;
      L.KilledByUs = false;

      if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0) {
        L.St = Lease::State::Done;
        continue;
      }
      L.DeadSeconds += Now - L.SpawnedAt;
      if (WIFEXITED(Status) && WEXITSTATUS(Status) == 3) {
        markLost(L, "cannot write its results");
        continue;
      }

      std::string Why =
          WIFSIGNALED(Status)
              ? std::string("killed by ") + signalName(WTERMSIG(Status))
              : "exited with code " + std::to_string(WEXITSTATUS(Status));
      if (External)
        Why += " (by supervisor)";

      // Progress refills the restart budget: only a lease whose cursor
      // stands still between deaths exhausts it.
      uint64_t NextNow = HB[L.Index].Next.load(std::memory_order_relaxed);
      if (NextNow > L.NextAtDeath)
        L.Restarts = 0;
      L.NextAtDeath = NextNow;

      // Crash attribution — retry first, skip only on repeat offenders.
      // An externally-induced death (chaos kill, wedge kill) never
      // implicates the seed in flight: the restarted lease re-runs it and
      // the deterministic report stays byte-identical to -j1.
      uint64_t CurOff = HB[L.Index].Cur.load(std::memory_order_acquire);
      if (!External && CurOff != IdleOffset &&
          ++L.DeathsAt[CurOff] >= SeedDeathThreshold)
        L.Skip[CurOff] = Why;

      if (backOff(L, Now, Why))
        ++Out.Restarts;
    }

    if (AllSettled)
      break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(PollSeconds));
  }

  for (const LeaseSlice &S : Slices) {
    Lease &L = Leases[S.Index];
    ShardOutcome SO;
    SO.Index = L.Index;
    SO.Lost = L.St == Lease::State::Lost;
    SO.Note = L.Note;
    SO.DeadSeconds = L.DeadSeconds;
    Out.Shards.push_back(std::move(SO));
  }
  return Out;
}
