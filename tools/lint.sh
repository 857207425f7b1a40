#!/usr/bin/env bash
# Repo lint, run in CI (see .github/workflows/ci.yml) and locally via
#   tools/lint.sh
#
# Seven checks. The first two keep the compile-time concurrency
# verification honest (src/common/sync.h); the third keeps the metric
# namespace coherent (src/obs/); the next two keep the error-path
# verification honest (src/common/status.h); the sixth keeps library
# diagnostics flowing through the structured logger (src/obs/log.h); the
# last keeps one compute substrate (src/common/thread_pool.h):
#
#  1. Raw synchronization primitives are banned outside src/common/sync.h.
#     Code that locks through std::mutex / std::lock_guard /
#     std::unique_lock / std::condition_variable is invisible to Clang
#     Thread Safety Analysis -- the annotated Mutex/MutexLock/CondVar
#     wrappers are the only sanctioned vocabulary. (std::once_flag /
#     std::call_once and std::atomic are fine: they carry no capability to
#     track.)
#
#  2. NO_THREAD_SAFETY_ANALYSIS escapes must be on the documented allowlist
#     below. Each allowlisted site must carry a justification comment; new
#     escapes require editing this file, which puts them in front of a
#     reviewer.
#
#  3. Metric names registered through MetricsRegistry::Get{Counter,Gauge,
#     Histogram} must match swiftspatial_<layer>_<name> with a known layer,
#     counters must end in _total and histograms in _seconds (README
#     "Observability" documents the convention). Registration sites keep
#     the name literal on the same line as the Get* call so this check can
#     see it.
#
#  4. Status::IgnoreError() escapes must be on the documented allowlist
#     below and carry a justification comment at the call site. Status and
#     Result<T> are [[nodiscard]] (CI builds with -Werror=unused-result);
#     IgnoreError() is the one sanctioned way to drop an error, and adding
#     a site means editing this file, which puts it in front of a reviewer.
#
#  5. `(void)`-casting a call expression is banned everywhere: it is the
#     anonymous way to defeat [[nodiscard]] on a Status/Result return and
#     is invisible to the allowlist above. `(void)name;` (silencing an
#     unused parameter/variable) stays legal, as does `(void)co_await`
#     (the hw/sim coroutine drain idiom: the discarded FIFO element is
#     data, not an error).
#
#  6. Raw stderr diagnostics (`fprintf(stderr, ...)` / `std::cerr`) are
#     banned in src/: library code reports through SWIFT_LOG (src/obs/log.h,
#     leveled, rate-controllable, trace-correlated, OBS_OFF-eraseable) or
#     returns a Status -- never by writing to the process's stderr behind
#     the embedding application's back. Allowlisted: common/logging.h's
#     CheckFailed (the SWIFT_CHECK death path fires when invariants are
#     already gone -- the logger may be the broken component) and
#     obs/log.cc itself (stderr is the logger's *default sink*, which is
#     the application-visible, SetStreamSink-overridable contract, not a
#     side channel). Tests, benches, and examples are main()-owning
#     programs: their stderr belongs to them, so the check covers src/
#     only.
#
#  7. No std::thread is constructed in src/ outside the long-lived owners
#     on the allowlist below: ThreadPool's workers, JoinService's
#     dispatchers and deadline watchdog, a stream's producer handle,
#     dist::Node's runtime (a member initialised without naming the type)
#     and the exposition server. Parallel work runs as a wave on a pool
#     (ParallelFor / ParallelForWorker); a loop or request that starts
#     threads of its own is what the wave replaced, so any other line of
#     src/ that names std::thread fails (std::thread:: statics such as
#     hardware_concurrency and comment lines excepted).
set -u
cd "$(dirname "$0")/.."

fail=0

# --- Check 1: raw sync primitives confined to src/common/sync.h ------------
banned='std::mutex\b|std::recursive_mutex\b|std::timed_mutex\b|std::shared_mutex\b|std::lock_guard\b|std::unique_lock\b|std::scoped_lock\b|std::shared_lock\b|std::condition_variable\b'
raw_hits=$(grep -rnE "$banned" src tests examples bench \
  --include='*.h' --include='*.cc' --include='*.cpp' \
  | grep -v '^src/common/sync\.h:' || true)
if [ -n "$raw_hits" ]; then
  echo "FAIL: raw synchronization primitives outside src/common/sync.h."
  echo "Use swiftspatial::Mutex / MutexLock / CondVar (common/sync.h) so"
  echo "Clang Thread Safety Analysis can check the locking:"
  echo
  echo "$raw_hits"
  echo
  fail=1
fi

# --- Check 2: NO_THREAD_SAFETY_ANALYSIS allowlist --------------------------
# Allowlisted escape sites, one per line as <file>:<symbol-or-reason>.
# Keep this list at three entries or fewer; every entry must point at a
# justification comment next to the attribute. Currently empty: the whole
# tree analyzes cleanly.
allowlist='
'
escape_hits=$(grep -rn 'NO_THREAD_SAFETY_ANALYSIS' src tests examples bench \
  --include='*.h' --include='*.cc' --include='*.cpp' \
  | grep -v '^src/common/sync\.h:' || true)
if [ -n "$escape_hits" ]; then
  while IFS= read -r hit; do
    file=${hit%%:*}
    if ! printf '%s\n' "$allowlist" | grep -qF "$file"; then
      echo "FAIL: NO_THREAD_SAFETY_ANALYSIS escape not on the allowlist in"
      echo "tools/lint.sh (add it with a justification, max 3 entries):"
      echo "  $hit"
      echo
      fail=1
    fi
  done <<EOF
$escape_hits
EOF
fi

allowed_count=$(printf '%s\n' "$allowlist" | grep -c ':' || true)
if [ "$allowed_count" -gt 3 ]; then
  echo "FAIL: NO_THREAD_SAFETY_ANALYSIS allowlist has $allowed_count entries (max 3)."
  fail=1
fi

# --- Check 3: metric-name convention ---------------------------------------
# swiftspatial_<layer>_<name>, lower_snake, layer from the documented set;
# counters end _total, histograms end _seconds (latency histograms are
# always in base seconds). src/obs/ itself defines the registry and
# registers nothing, so every hit below is an instrumentation site.
metric_name_re='^swiftspatial_(service|cache|stream|join|dist|obs)_[a-z0-9_]+$'
bad_metrics=$(grep -rnoE 'Get(Counter|Gauge|Histogram)\("[^"]+"' src tests examples bench \
  --include='*.h' --include='*.cc' --include='*.cpp' \
  | while IFS= read -r hit; do
      loc=${hit%%:Get*}
      kind=$(printf '%s' "$hit" | sed -E 's/.*:Get(Counter|Gauge|Histogram)\(.*/\1/')
      name=$(printf '%s' "$hit" | sed -E 's/.*\("([^"]+)"$/\1/')
      reason=''
      if ! printf '%s' "$name" | grep -qE "$metric_name_re"; then
        reason='name must be swiftspatial_<layer>_<lower_snake> with layer in service|cache|stream|join|dist|obs'
      elif [ "$kind" = Counter ] && ! printf '%s' "$name" | grep -q '_total$'; then
        reason='counter names must end in _total'
      elif [ "$kind" = Histogram ] && ! printf '%s' "$name" | grep -q '_seconds$'; then
        reason='histogram names must end in _seconds'
      fi
      if [ -n "$reason" ]; then
        echo "  $loc: $name ($reason)"
      fi
    done)
if [ -n "$bad_metrics" ]; then
  echo "FAIL: metric names off the swiftspatial_<layer>_<name> convention"
  echo "(see the Observability section of README.md):"
  echo
  echo "$bad_metrics"
  echo
  fail=1
fi

# --- Check 4: Status::IgnoreError() allowlist ------------------------------
# Allowlisted escape sites, one per line as <file>:<symbol-or-reason>.
# Keep this list at five entries or fewer; every entry must point at a
# justification comment next to the call (same line or the two lines
# above it -- the check verifies the comment exists).
ignore_allowlist='
tests/common/status_test.cc: pins that the escape hatch compiles and is a no-op
'
ignore_hits=$(grep -rn '\.IgnoreError()' src tests examples bench \
  --include='*.h' --include='*.cc' --include='*.cpp' \
  | grep -v '^src/common/status\.h:' || true)
if [ -n "$ignore_hits" ]; then
  while IFS= read -r hit; do
    file=${hit%%:*}
    rest=${hit#*:}
    lineno=${rest%%:*}
    if ! printf '%s\n' "$ignore_allowlist" | grep -qF "$file"; then
      echo "FAIL: Status::IgnoreError() escape not on the allowlist in"
      echo "tools/lint.sh (add it with a justification, max 5 entries):"
      echo "  $hit"
      echo
      fail=1
    fi
    # Justification comment: the call line or one of the two lines above
    # it must contain a // comment.
    start=$((lineno - 2))
    [ "$start" -lt 1 ] && start=1
    if ! sed -n "${start},${lineno}p" "$file" | grep -q '//'; then
      echo "FAIL: Status::IgnoreError() call without a justification comment"
      echo "(on the call line or the two lines above it):"
      echo "  $hit"
      echo
      fail=1
    fi
  done <<EOF
$ignore_hits
EOF
fi

ignore_count=$(printf '%s\n' "$ignore_allowlist" | grep -c ':' || true)
if [ "$ignore_count" -gt 5 ]; then
  echo "FAIL: IgnoreError allowlist has $ignore_count entries (max 5)."
  fail=1
fi

# --- Check 5: no (void)-cast of call expressions ---------------------------
# `(void)SomeCall(...)` silently defeats [[nodiscard]] on Status/Result and
# bypasses the IgnoreError allowlist above, so it is banned outright for
# *any* call; `(void)name;` (unused parameter/variable) and
# `(void)co_await ...` (hw/sim FIFO drain: the discarded element is data,
# not an error) remain legal.
void_hits=$(grep -rnE '(^|[[:space:](;{])\(void\) ?[A-Za-z_:~][A-Za-z0-9_:.>-]*\(' \
  src tests examples bench \
  --include='*.h' --include='*.cc' --include='*.cpp' \
  | grep -v 'co_await' || true)
if [ -n "$void_hits" ]; then
  echo "FAIL: (void)-cast call expressions (the anonymous [[nodiscard]]"
  echo "defeat). Propagate the status, check it, or use"
  echo "Status::IgnoreError() with a justification (tools/lint.sh check 4):"
  echo
  echo "$void_hits"
  echo
  fail=1
fi

# --- Check 6: no raw stderr diagnostics in library code --------------------
# Library code logs through SWIFT_LOG or returns a Status; writing to the
# process's stderr is the application's prerogative. common/logging.h's
# CheckFailed (death path) and obs/log.cc (stderr is the logger's default,
# overridable sink) are the two sanctioned sites.
stderr_hits=$(grep -rnE 'fprintf\(stderr|std::cerr' src \
  --include='*.h' --include='*.cc' \
  | grep -v '^src/common/logging\.h:' \
  | grep -v '^src/obs/log\.cc:' || true)
if [ -n "$stderr_hits" ]; then
  echo "FAIL: raw stderr diagnostics in src/. Library code reports through"
  echo "SWIFT_LOG (src/obs/log.h) or a returned Status, not by printing to"
  echo "the embedding application's stderr:"
  echo
  echo "$stderr_hits"
  echo
  fail=1
fi

# --- Check 7: no per-call threads in src/ ----------------------------------
# Allowlisted lines, one per line as <file>:<text the line contains>.
thread_allowlist='
src/common/thread_pool.h:std::vector<std::thread> workers_;
src/exec/service.h:std::vector<std::thread> dispatchers_;
src/exec/service.h:std::thread deadline_watchdog_;
src/exec/service.cc:deadline_watchdog_ = std::thread([this] { DeadlineLoop(); });
src/exec/service.cc:for (std::thread& d : dispatchers_) d.join();
src/exec/streaming.h:std::thread producer);
src/exec/streaming.h:std::thread producer_;
src/exec/streaming.cc:std::thread producer)
src/exec/streaming.cc:AsyncJoinHandle(state, std::thread())
src/exec/streaming.cc:producer_ = std::thread(std::move(deferred->producer));
src/dist/cluster.h:std::thread runtime_;
src/obs/exposition_server.h:std::thread thread_;
src/obs/exposition_server.cc:thread_ = std::thread([this] { Serve(); });
'
thread_hits=$(grep -rnE 'std::thread\b' src --include='*.h' --include='*.cc' \
  | grep -v 'std::thread::' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$thread_hits" ]; then
  while IFS= read -r hit; do
    file=${hit%%:*}
    rest=${hit#*:}
    code=${rest#*:}
    allowed=0
    while IFS= read -r entry; do
      [ -n "$entry" ] || continue
      if [ "${entry%%:*}" = "$file" ] && [[ "$code" == *"${entry#*:}"* ]]; then
        allowed=1
      fi
    done <<EOF
$thread_allowlist
EOF
    if [ "$allowed" -eq 0 ]; then
      echo "FAIL: std::thread in src/ outside the long-lived owners on the"
      echo "allowlist in tools/lint.sh. Run parallel work as a wave on a pool"
      echo "(ParallelFor / ParallelForWorker, src/common/thread_pool.h):"
      echo "  $hit"
      echo
      fail=1
    fi
  done <<EOF
$thread_hits
EOF
fi

if [ "$fail" -eq 0 ]; then
  echo "lint OK: no raw sync primitives outside src/common/sync.h,"
  echo "no unlisted NO_THREAD_SAFETY_ANALYSIS escapes, all metric"
  echo "names follow swiftspatial_<layer>_<name>, no unlisted or"
  echo "uncommented Status::IgnoreError() escapes, no (void)-cast"
  echo "call expressions, no raw stderr diagnostics in src/, and no"
  echo "std::thread in src/ outside the long-lived owners."
fi
exit "$fail"
