//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"
#include "jit/Runtime.h"

#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "support/Assert.h"
#include "support/DegradationLog.h"
#include "support/Fault.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <fcntl.h>
#include <filesystem>
#include <map>
#include <mutex>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#include <vector>

namespace {

/// The scratch root for compile working directories: TMPDIR when set (the
/// historical hardcoded /tmp broke sandboxes and shared hosts), /tmp
/// otherwise.
std::string scratchRoot() {
  const char *Env = std::getenv("TMPDIR");
  if (Env && *Env) {
    std::string Root = Env;
    while (Root.size() > 1 && Root.back() == '/')
      Root.pop_back();
    return Root;
  }
  return "/tmp";
}

/// A mkdtemp'd directory under scratchRoot(), removed with everything in
/// it when the guard goes out of scope. path() is empty when creation
/// failed (never aborts — the caller degrades).
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Tag) {
    std::string Template = scratchRoot() + "/convgen-" + Tag + "-XXXXXX";
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    if (mkdtemp(Buf.data()))
      Path = Buf.data();
  }
  ~ScratchDir() {
    std::error_code Ignored;
    if (!Path.empty())
      std::filesystem::remove_all(Path, Ignored);
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// Whitespace-splits a command or flag string into argv tokens (the
/// compiler spec "ccache cc" is two tokens; quoting inside flags is not
/// supported and has never been needed).
std::vector<std::string> splitTokens(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == ' ' || C == '\t' || C == '\n') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// fork() whose child leads a new process group, so the watchdog kills a
/// compiler driver with its cc1 and as. Both sides call setpgid, so the
/// group exists before either of them goes on.
pid_t forkGroupLeader() {
  pid_t Pid = fork();
  if (Pid == 0)
    setpgid(0, 0);
  else if (Pid > 0)
    setpgid(Pid, Pid);
  return Pid;
}

/// Watchdog wait: reaps \p Pid, SIGKILLing its process group first if it
/// is still running after \p TimeoutMs (<= 0 waits unboundedly — the
/// historical behavior). The bounded path polls waitpid(WNOHANG) with an
/// escalating nanosleep (1ms doubling to a 20ms cap) so a fast compile
/// pays ~1ms of latency and a hung one is detected within ~20ms of the
/// bound. Always reaps — no zombie survives, even on the kill path. Sets
/// \p TimedOut (when non-null) and returns -1 if the child was killed.
int waitBounded(pid_t Pid, int64_t TimeoutMs, bool *TimedOut) {
  if (TimedOut)
    *TimedOut = false;
  int Wait = 0;
  if (TimeoutMs <= 0) {
    while (waitpid(Pid, &Wait, 0) < 0)
      if (errno != EINTR)
        return -1;
    return WIFEXITED(Wait) ? WEXITSTATUS(Wait) : -1;
  }
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  long SleepNs = 1000000; // 1ms
  for (;;) {
    pid_t Got = waitpid(Pid, &Wait, WNOHANG);
    if (Got == Pid)
      return WIFEXITED(Wait) ? WEXITSTATUS(Wait) : -1;
    if (Got < 0 && errno != EINTR)
      return -1;
    if (std::chrono::steady_clock::now() >= Deadline)
      break;
    struct timespec Ts = {0, SleepNs};
    nanosleep(&Ts, nullptr);
    if (SleepNs < 20000000) // escalate to a 20ms cap
      SleepNs *= 2;
  }
  // Timed out: kill the group and reap. SIGKILL cannot be caught, so the
  // blocking reap below terminates promptly.
  kill(-Pid, SIGKILL);
  while (waitpid(Pid, &Wait, 0) < 0)
    if (errno != EINTR)
      break;
  if (TimedOut)
    *TimedOut = true;
  return -1;
}

/// fork/exec of \p Args with stdout+stderr redirected to \p LogPath
/// ("/dev/null" when empty). No shell is involved, so cache directories,
/// TMPDIR values, and flag strings with metacharacters cannot be
/// reinterpreted as shell syntax. A nonempty \p ChildTmpDir becomes the
/// child's TMPDIR. Returns the child's exit code, or -1 when the child
/// could not be spawned (including exec failure, reported as 127 by
/// convention) or exceeded \p TimeoutMs and was killed (see waitBounded).
int runCommand(const std::vector<std::string> &Args,
               const std::string &LogPath, int64_t TimeoutMs = 0,
               bool *TimedOut = nullptr,
               const std::string &ChildTmpDir = "") {
  if (TimedOut)
    *TimedOut = false;
  if (Args.empty())
    return -1;
  std::vector<char *> Argv;
  Argv.reserve(Args.size() + 1);
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  // Built before the fork: setenv is not async-signal-safe.
  std::string TmpEntry = "TMPDIR=" + ChildTmpDir;
  std::vector<char *> Envp;
  if (!ChildTmpDir.empty()) {
    for (char **E = environ; *E; ++E)
      if (std::strncmp(*E, "TMPDIR=", 7) != 0)
        Envp.push_back(*E);
    Envp.push_back(TmpEntry.data());
    Envp.push_back(nullptr);
  }
  pid_t Pid = forkGroupLeader();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    const char *Log = LogPath.empty() ? "/dev/null" : LogPath.c_str();
    int Fd = open(Log, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      dup2(Fd, STDOUT_FILENO);
      dup2(Fd, STDERR_FILENO);
      if (Fd > STDERR_FILENO)
        close(Fd);
    }
    if (Envp.empty())
      execvp(Argv[0], Argv.data());
    else
      execvpe(Argv[0], Argv.data(), Envp.data());
    _exit(127);
  }
  return waitBounded(Pid, TimeoutMs, TimedOut);
}

/// The compile-hang injection: forks a child that blocks forever (the
/// moral equivalent of a wedged compiler), then runs the *real* watchdog
/// against it. Only the fork differs from a genuine hang — detection,
/// SIGKILL, and reaping all exercise the production path.
int runHangingChild(int64_t TimeoutMs, bool *TimedOut) {
  pid_t Pid = forkGroupLeader();
  if (Pid < 0) {
    if (TimedOut)
      *TimedOut = false;
    return -1;
  }
  if (Pid == 0) {
    // Child of a possibly multithreaded parent: async-signal-safe calls
    // only. pause() in a loop sleeps until SIGKILL arrives.
    for (;;)
      pause();
  }
  return waitBounded(Pid, TimeoutMs, TimedOut);
}

/// First ~4K of a file, for surfacing compiler diagnostics in a Status.
std::string readDiagnostics(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "r");
  if (!File)
    return "";
  char Buf[4096];
  size_t Got = std::fread(Buf, 1, sizeof(Buf) - 1, File);
  Buf[Got] = '\0';
  std::fclose(File);
  return Buf;
}

} // namespace

using namespace convgen;
using namespace convgen::jit;
using formats::LevelKind;
using support::Degradation;
using support::DegradationLog;
using support::FaultSite;

std::string jit::compilerSpec() {
  const char *Env = std::getenv("CONVGEN_CC");
  if (Env && *Env)
    return Env;
  return "cc";
}

int64_t jit::compileTimeoutMillis() {
  if (const char *Env = std::getenv("CONVGEN_COMPILE_TIMEOUT_MS")) {
    char *End = nullptr;
    long long Ms = std::strtoll(Env, &End, 10);
    if (End != Env && *End == '\0')
      return Ms <= 0 ? 0 : Ms; // 0 disables the watchdog
  }
  return 120000; // 2 minutes: far beyond any honest compile of emitted C
}

bool jit::jitAvailable() {
  static std::mutex Mu;
  static std::map<std::string, bool> Cache;
  std::string Cc = compilerSpec();
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Cache.find(Cc);
  if (It != Cache.end())
    return It->second;
  std::vector<std::string> Args = splitTokens(Cc);
  Args.push_back("--version");
  bool Ok = runCommand(Args, "", compileTimeoutMillis()) == 0;
  Cache[Cc] = Ok;
  return Ok;
}

bool jit::jitOpenMPAvailable() {
#ifdef CONVGEN_HAVE_OPENMP
  return true;
#else
  return false;
#endif
}

std::string jit::jitEffectiveFlags() {
  std::string Flags = "-O3 -march=native -std=c11 -shared -fPIC";
  if (jitOpenMPAvailable())
    Flags += " -fopenmp";
  // CONVGEN_JIT_FLAGS appends to every JIT compile: the sanitizer CI leg
  // uses it to build generated code with ASan/UBSan so the whole
  // host-binary + dlopen'd-routine boundary runs instrumented. The env
  // value flows through this function into the disk-cache key, so
  // differently-flagged objects never alias.
  if (const char *Env = std::getenv("CONVGEN_JIT_FLAGS")) {
    if (*Env) {
      Flags += " ";
      Flags += Env;
    }
  }
  return Flags;
}

/// Loads the conversion entry point out of an already compiled object.
/// Returns false (with \p Error set) instead of aborting, so callers can
/// treat a stale or corrupt cached object as a miss. Honors the dlopen and
/// dlsym fault-injection sites.
static bool loadConversion(const std::string &SoPath,
                           const std::string &FnName, void **Handle,
                           RoutineFn *Fn, std::string *Error) {
  if (support::faultInjected(FaultSite::Dlopen)) {
    *Error = "jit: dlopen failed (injected fault): " + SoPath;
    return false;
  }
  *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!*Handle) {
    *Error = "jit: dlopen failed: " + std::string(dlerror());
    return false;
  }
  RoutineFn Entry = nullptr;
  if (!support::faultInjected(FaultSite::Dlsym))
    Entry = reinterpret_cast<RoutineFn>(dlsym(*Handle, FnName.c_str()));
  if (!Entry) {
    *Error = "jit: dlsym cannot find " + FnName;
    dlclose(*Handle);
    *Handle = nullptr;
    return false;
  }
  *Fn = Entry;
  return true;
}

/// Transient-failure retry budget (CONVGEN_JIT_ATTEMPTS, default 3,
/// clamped to [1, 10]).
static int jitCompileAttempts() {
  if (const char *Env = std::getenv("CONVGEN_JIT_ATTEMPTS")) {
    char *End = nullptr;
    long N = std::strtol(Env, &End, 10);
    if (End != Env && *End == '\0')
      return N < 1 ? 1 : (N > 10 ? 10 : static_cast<int>(N));
  }
  return 3;
}

/// Bounded exponential backoff before retry attempt \p Attempt (1-based):
/// 2ms, 4ms, 8ms, ... capped at 100ms.
static void backoffSleep(int Attempt) {
  long Ms = 2L << (Attempt - 1);
  if (Ms > 100)
    Ms = 100;
  struct timespec Ts = {0, Ms * 1000000L};
  nanosleep(&Ts, nullptr);
}

JitConversion::JitConversion(const codegen::Conversion &Conversion,
                             const std::string &CachedSoPath,
                             support::Deadline RequestDeadline)
    : Conv(Conversion), CachedSoPath(CachedSoPath) {
  Status S = initialize(RequestDeadline);
  if (S.ok())
    return;
  // Environment failure after retries: degrade to interpreter-backed
  // execution instead of dying. Every subsequent run is still bit-exact
  // with the native path; the DegradationLog records the event for the
  // serving layer's metrics.
  Degraded = true;
  DegradedWhy = S.message();
  DegradationLog::instance().record(
      Degradation::InterpreterFallback,
      strfmt("%s -> %s: %s", Conv.Source.Name.c_str(),
             Conv.Target.Name.c_str(), S.message().c_str()));
}

std::shared_ptr<JitConversion>
JitConversion::loadCachedOnly(const codegen::Conversion &Conversion,
                              const std::string &CachedSoPath) {
  // The constructor's cached load minus the compile fallback.
  std::shared_ptr<JitConversion> J(
      new JitConversion(Conversion, CachedSoPath, nullptr));
  return J->loadVerifiedCached() ? J : nullptr;
}

bool JitConversion::loadVerifiedCached() {
  if (CachedSoPath.empty() ||
      !convert::readVerifiedCachedObject(CachedSoPath))
    return false;
  // A verified object that still refuses to load (foreign-ISA leftover,
  // injected dlopen fault) is evicted so future processes recompile
  // instead of inheriting the poison.
  std::string Error;
  if (!loadConversion(CachedSoPath, Conv.Func.Name, &Handle, &Fn, &Error)) {
    DegradationLog::instance().record(Degradation::JitLoadFailure, Error);
    convert::evictCachedObject(CachedSoPath, Error);
    return false;
  }
  FromCache = true;
  return true;
}

Status JitConversion::initialize(const support::Deadline &RequestDeadline) {
  // Cache hit: load the previously compiled, checksum-verified object —
  // no external compiler.
  if (loadVerifiedCached())
    return Status();
  if (!jitAvailable())
    return Status::error(ErrorCode::Unavailable,
                         "jit: no working C compiler ('" + compilerSpec() +
                             "'); set CONVGEN_CC");
  int Attempts = jitCompileAttempts();
  Status Last;
  for (int A = 1; A <= Attempts; ++A) {
    if (A > 1) {
      DegradationLog::instance().record(Degradation::JitRetry,
                                        Last.message());
      backoffSleep(A - 1);
    }
    if (RequestDeadline.expired()) {
      // Out of time before this attempt even starts: degrade now. Flagged
      // as deadline-bound so the cache does not pin the degraded handle on
      // callers with more patience.
      DeadlineBound = true;
      DegradationLog::instance().record(
          Degradation::DeadlineExceeded,
          strfmt("%s -> %s: request deadline expired before compile "
                 "attempt %d",
                 Conv.Source.Name.c_str(), Conv.Target.Name.c_str(), A));
      return Status::error(ErrorCode::DeadlineExceeded,
                           "jit: request deadline expired before the "
                           "compile could " +
                               std::string(A > 1 ? "be retried" : "start"));
    }
    Last = compileAndLoadOnce(RequestDeadline);
    // DeadlineExceeded is deliberately not an environment error: a timed
    // out compile is not retried (each retry would pay the full bound
    // again), so the loop exits here and the handle degrades immediately.
    if (Last.ok() || !Last.isEnvironmentError())
      return Last;
  }
  return Last;
}

Status
JitConversion::compileAndLoadOnce(const support::Deadline &RequestDeadline) {
  // Every exit removes the scratch tree, success included: a dlopen'd
  // object stays mapped after its file is unlinked. The compiler gets the
  // tree as its TMPDIR, so its own temporaries go with it, even those of a
  // killed compile. dlopen matches an already loaded object by path before
  // it reads the file, and mkdtemp may hand out a removed directory's name
  // again, so a per-process serial in the name keeps every object path
  // this process loads unique.
  static std::atomic<uint64_t> Serial{0};
  ScratchDir Scratch(
      strfmt("jit-%llu", static_cast<unsigned long long>(++Serial)));
  const std::string &Dir = Scratch.path();
  if (Dir.empty())
    return Status::error(ErrorCode::Unavailable,
                         "jit: cannot create a scratch directory under " +
                             scratchRoot() + " (set TMPDIR to a writable "
                                             "location)");
  std::string CPath = Dir + "/conv.c";
  std::string SoPath = Dir + "/conv.so";
  std::string LogPath = Dir + "/cc.log";

  {
    std::FILE *File = std::fopen(CPath.c_str(), "w");
    if (!File)
      return Status::error(ErrorCode::Unavailable,
                           "jit: cannot write the generated source in " +
                               Dir);
    std::string Source = Conv.cSource();
    bool Ok = std::fwrite(Source.data(), 1, Source.size(), File) ==
              Source.size();
    if (std::fclose(File) != 0)
      Ok = false;
    if (!Ok)
      return Status::error(ErrorCode::Unavailable,
                           "jit: cannot write the generated source (disk "
                           "full?) in " +
                               Dir);
  }

  std::vector<std::string> Args = splitTokens(compilerSpec());
  for (const std::string &F : splitTokens(jitEffectiveFlags()))
    Args.push_back(F);
  Args.push_back("-o");
  Args.push_back(SoPath);
  Args.push_back(CPath);

  // The watchdog bound on this attempt: the lesser of the environment-wide
  // CONVGEN_COMPILE_TIMEOUT_MS knob and the caller's remaining deadline
  // budget. Which one binds decides the post-timeout policy — a
  // knob-bound kill means a wedged compiler every caller would hit (the
  // degraded handle is cacheable), a deadline-bound kill is one impatient
  // caller's problem (the handle must not poison the shared cache).
  int64_t KnobMs = compileTimeoutMillis();
  int64_t LeftMs = RequestDeadline.remainingMillis();
  bool DeadlineBinds =
      !RequestDeadline.infinite() && (KnobMs <= 0 || LeftMs < KnobMs);
  int64_t BoundMs = DeadlineBinds ? (LeftMs > 0 ? LeftMs : 1) : KnobMs;

  int Rc = 1;
  bool TimedOut = false;
  // An injected compile fault fires before the spawn (Rc stays 1) so
  // 100%-rate harness runs do not pay one real compile per attempt.
  if (!support::faultInjected(FaultSite::Compile)) {
    auto Begin = std::chrono::steady_clock::now();
    // Injected hang: a child that blocks forever stands in for the wedged
    // compiler, and the genuine watchdog kills and reaps it. Drawn only
    // under a finite bound — with the watchdog disabled the injection
    // would hang the harness itself.
    if (BoundMs > 0 && support::faultInjected(FaultSite::CompileHang))
      Rc = runHangingChild(BoundMs, &TimedOut);
    else
      Rc = runCommand(Args, LogPath, BoundMs, &TimedOut, Dir);
    CompileSecs += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Begin)
                       .count();
  }
  if (TimedOut) {
    std::string What = strfmt(
        "%s -> %s: compiler child exceeded %lldms and was killed",
        Conv.Source.Name.c_str(), Conv.Target.Name.c_str(),
        static_cast<long long>(BoundMs));
    if (DeadlineBinds) {
      DeadlineBound = true;
      DegradationLog::instance().record(Degradation::DeadlineExceeded, What);
    } else {
      DegradationLog::instance().record(Degradation::CompileTimeout, What);
    }
    return Status::error(ErrorCode::DeadlineExceeded, "jit: " + What);
  }
  if (Rc != 0) {
    std::string Log = readDiagnostics(LogPath);
    if (Log.empty())
      Log = "(no compiler diagnostics)";
    Status S = Status::error(ErrorCode::Unavailable,
                             "jit: compilation failed:\n" + Log);
    DegradationLog::instance().record(Degradation::JitCompileFailure,
                                      S.message());
    return S;
  }

  // Install into the shared on-disk cache (atomic rename + checksum
  // manifest under the entry's flock; see PlanCache.h). Best-effort: a
  // failed install is recorded and this process keeps serving from its
  // locally compiled object.
  if (!CachedSoPath.empty())
    convert::installCachedObject(CachedSoPath, SoPath, CPath);

  std::string Error;
  if (!loadConversion(SoPath, Conv.Func.Name, &Handle, &Fn, &Error)) {
    DegradationLog::instance().record(Degradation::JitLoadFailure, Error);
    return Status::error(ErrorCode::Unavailable, Error);
  }
  return Status();
}

JitConversion::~JitConversion() {
  // Never dlclose an object whose OpenMP parallel regions may have run:
  // libgomp's pooled worker threads keep references into the region code
  // of the DSO that spawned them, so unloading it while the pool is alive
  // crashes on the next parallel region (reproducible with
  // OMP_NUM_THREADS > 1 and repeated load/run/unload cycles). Keeping the
  // handle resident is the standard JIT-plugin practice; a process holds
  // at most one object per (pair, options, flags) through the PlanCache.
  if (Handle && !jitOpenMPAvailable())
    dlclose(Handle);
}

void jit::marshalInput(const tensor::SparseTensor &In, CTensor *Out) {
  *Out = CTensor();
  for (size_t D = 0; D < In.Dims.size(); ++D)
    Out->dims[D] = In.Dims[D];
  for (size_t K = 0; K < In.Levels.size(); ++K) {
    const tensor::LevelStorage &L = In.Levels[K];
    size_t Slot = K + 1;
    Out->pos[Slot] = const_cast<int32_t *>(L.Pos.data());
    Out->pos_len[Slot] = static_cast<int64_t>(L.Pos.size());
    Out->crd[Slot] = const_cast<int32_t *>(L.Crd.data());
    Out->crd_len[Slot] = static_cast<int64_t>(L.Crd.size());
    Out->perm[Slot] = const_cast<int32_t *>(L.Perm.data());
    Out->perm_len[Slot] = static_cast<int64_t>(L.Perm.size());
    Out->params[Slot] = L.SizeParam;
  }
  Out->vals = const_cast<double *>(In.Vals.data());
  Out->vals_len = static_cast<int64_t>(In.Vals.size());
}

tensor::SparseTensor jit::collectOutput(const formats::Format &Target,
                                        const std::vector<int64_t> &Dims,
                                        CTensor *B) {
  // Adoption, not copying: the generated routine malloc'd these arrays and
  // yielded them through the ABI struct; ownership moves into the
  // SparseTensor's OwnedArray storage, which frees them with std::free.
  // Slots the target format does not populate are released below.
  tensor::SparseTensor Out;
  Out.Format = Target;
  Out.Dims = Dims;
  Out.Levels.resize(Target.Levels.size());
  for (size_t K = 0; K < Target.Levels.size(); ++K) {
    size_t Slot = K + 1;
    tensor::LevelStorage &L = Out.Levels[K];
    L.Pos.adoptMalloc(B->pos[Slot], static_cast<size_t>(B->pos_len[Slot]));
    L.Crd.adoptMalloc(B->crd[Slot], static_cast<size_t>(B->crd_len[Slot]));
    L.Perm.adoptMalloc(B->perm[Slot], static_cast<size_t>(B->perm_len[Slot]));
    B->pos[Slot] = B->crd[Slot] = B->perm[Slot] = nullptr;
    if (Target.levelHasSizeParam(static_cast<int>(K)))
      L.SizeParam = B->params[Slot];
  }
  Out.Vals.adoptMalloc(B->vals, static_cast<size_t>(B->vals_len));
  B->vals = nullptr;
  freeOutput(B);
  return Out;
}

void jit::freeOutput(CTensor *B) {
  for (size_t Slot = 0; Slot <= ir::kMaxLevels; ++Slot) {
    std::free(B->pos[Slot]);
    std::free(B->crd[Slot]);
    std::free(B->perm[Slot]);
    B->pos[Slot] = B->crd[Slot] = B->perm[Slot] = nullptr;
  }
  std::free(B->vals);
  B->vals = nullptr;
}

void JitConversion::runRaw(const CTensor *A, CTensor *B) const {
  if (!Fn)
    fatalError(strfmt("jit: runRaw needs a native routine, but %s -> %s is "
                      "degraded: %s",
                      Conv.Source.Name.c_str(), Conv.Target.Name.c_str(),
                      DegradedWhy.c_str())
                   .c_str());
  double Phases[kNumPhases] = {};
  Fn(&runtimeTable(), A, B, Phases);
  std::lock_guard<std::mutex> Lock(PhaseMu);
  for (int K = 0; K < kNumPhases; ++K)
    PhaseSecs[K] += Phases[K];
}

const double *JitConversion::phaseSeconds() const {
  thread_local double Snapshot[kNumPhases];
  std::lock_guard<std::mutex> Lock(PhaseMu);
  std::copy(PhaseSecs, PhaseSecs + kNumPhases, Snapshot);
  return Snapshot;
}

StatusOr<tensor::SparseTensor>
JitConversion::tryRun(const tensor::SparseTensor &In) const {
  if (In.Format.Name != Conv.Source.Name)
    return Status::error(
        ErrorCode::InvalidArgument,
        strfmt("jit conversion compiled for source '%s' got a '%s' tensor",
               Conv.Source.Name.c_str(), In.Format.Name.c_str()));
  // Size guard: a natively compiled routine cannot switch strategies per
  // tensor, so reject inputs whose dimensions demand sorted-ranking levels
  // this object was not compiled with — running the dense-ranking code
  // would allocate by the product of the grouping extents (gigabytes for a
  // 2^31-extent mode) instead of O(nnz). Callers route such tensors
  // through a dims-specialized plan (codegen::optionsForDims +
  // PlanCache::jit); the interpreter-backed Converter does so
  // automatically. This is a request error, not an environment error — the
  // interpreter running *this* plan would misbehave identically, so no
  // fallback.
  // Re-plan with this object's own options (forced sorted ranking
  // included) at the tensor's dims — comparing a default-strategy need
  // against a forced-strategy compile would misfire both ways.
  codegen::Options NeedOpts = Conv.Opts;
  NeedOpts.DimsHint = In.Dims;
  codegen::AssemblyPlan Need =
      codegen::planAssembly(Conv.Source, Conv.Target, NeedOpts);
  if (!Need.Unsupported.empty())
    return Status::error(ErrorCode::Unsupported, Need.Unsupported);
  // Compare against the plan recorded at generation time (Conv.Asm), not
  // a re-derivation: re-planning here would read the *current*
  // CONVGEN_RANK_DENSE_MAX_BYTES and silently disagree with the compiled
  // code whenever the budget changed since generation.
  for (size_t K = 0; K < Need.Sorted.size(); ++K)
    if (Need.Sorted[K] &&
        (K >= Conv.Asm.Sorted.size() || !Conv.Asm.Sorted[K]))
      return Status::error(
          ErrorCode::InvalidArgument,
          strfmt("jit: conversion %s -> %s was compiled without the "
                 "sorted-ranking strategy level %zu needs at these "
                 "dimensions (dense ranking structures would exceed the "
                 "CONVGEN_RANK_DENSE_MAX_BYTES budget of %lld); rebuild "
                 "the plan with codegen::optionsForDims(source, target, "
                 "opts, tensor.Dims)",
                 Conv.Source.Name.c_str(), Conv.Target.Name.c_str(), K + 1,
                 static_cast<long long>(codegen::rankDenseMaxBytes())));
  // A packed object computes its key widths from the input's extents; an
  // input whose coordinate tuple needs more than 64 bits would alias keys.
  if (!Conv.Asm.PackWidths.empty() &&
      codegen::packWidths(Conv.Target, In.Dims).empty())
    return Status::error(
        ErrorCode::InvalidArgument,
        strfmt("jit: conversion %s -> %s was compiled with packed 64-bit "
               "sort keys, but this input's extents do not pack into 64 "
               "bits; rebuild the plan with codegen::optionsForDims(source, "
               "target, opts, tensor.Dims)",
               Conv.Source.Name.c_str(), Conv.Target.Name.c_str()));
  Status Order = convert::checkSourceOrder(Conv, In);
  if (!Order.ok())
    return Order;
  if (Degraded)
    return convert::interpretPlan(Conv, In);
  CTensor A, B;
  marshalInput(In, &A);
  Fn(&runtimeTable(), &A, &B, nullptr);
  return collectOutput(Conv.Target, In.Dims, &B);
}

tensor::SparseTensor JitConversion::run(const tensor::SparseTensor &In) const {
  StatusOr<tensor::SparseTensor> R = tryRun(In);
  if (!R.ok())
    fatalError(R.status().message().c_str());
  return R.take();
}
