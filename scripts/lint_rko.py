#!/usr/bin/env python3
"""rko lint: project-specific static checks the compiler cannot express.

The simulator is a deterministic, single-host-threaded discrete-event
system; its determinism contract is easy to break silently by reaching for
host concurrency or wall-clock time. This pass bans those constructs
outside the one layer allowed to use host facilities (src/rko/sim/), plus
a few idiom rules:

  host-threading   std::thread / std::mutex / std::condition_variable /
                   <thread> / <mutex> / atomics headers outside src/rko/sim/
                   (simulated locks live in rko/sim/sync.hpp)
  wall-clock       std::chrono clocks, time(), gettimeofday, clock_gettime
                   anywhere in src/ — results must be virtual-time only
  host-random      rand(), std::random_device, mt19937 outside src/rko/sim/
                   and src/rko/base/ — all randomness flows through
                   base::Rng seeds so runs stay replayable
  raw-assert       assert( instead of RKO_ASSERT*: raw assert vanishes in
                   NDEBUG builds and prints no simulation context
  lock-across-await  a SpinLock .lock() with an rpc/sleep/wait before the
                   matching .unlock(): shard locks must never be held
                   across awaits (the busy-bit pattern exists for that).
                   Brace-depth aware: an .unlock() inside a conditional
                   block only releases on that branch — the fall-through
                   path is still holding, and an await there is flagged.
  unnamed-guard    a guard temporary — sim::LockGuard(l); / ReadGuard(l);
                   — unlocks at the semicolon, leaving the "critical
                   section" unprotected; name the guard
  serial-fanout    a .rpc(/.rpc_all( inside a loop over a holder mask, or
                   over a page-push list (PushPage entries, `work`,
                   `grants`, `pushes`), in src/rko/core/ — per-victim or
                   per-page round trips serialize what the fabric can do
                   concurrently; batch the posts into one rpc_scatter (or
                   a ranged invalidate) instead
  per-waiter-rpc   a .rpc(/.rpc_all( inside a loop over futex waiters or
                   convoy queues in src/rko/core/ — wake paths must not
                   pay one round trip per waiter; coalesce the grants
                   into kFutexGrantBatch posts over one rpc_scatter
                   (oneway .send( per waiter is fine)
  hard-coded-origin  comparing an origin to the literal kernel 0 (or
                   passing 0 as an ensure_site origin) in src/ — since
                   sharded homes (rko/home), directory state lives at
                   the home map's home_of(...), any kernel can be a
                   process's origin, and "kernel 0" is never special; route
                   through site.origin() / home_of instead
  home-fork        a .sharded( (or ->sharded() call in src/ outside
                   src/rko/home/ — the home map answers every "who homes
                   this" question at any shard count (one shard is the
                   degenerate map, not a branch); ask it (home_of / homes /
                   may_home) instead of forking

Comment/string handling is a real scanner, not per-line regex: block
comments may span lines and string literals may contain `//` or banned
tokens without confusing the rules.

Suppressions require a reason:  // rko-lint: allow(<rule>): <why>
A bare allow() still suppresses but is reported as a warning.

Usage: lint_rko.py [--self-test] [paths...]
       (default paths: src tools tests bench examples)
Exit status: 0 clean (warnings permitted), 1 findings, 2 usage error.
"""

import os
import re
import sys

CPP_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".hh")

# Rules as (rule-name, compiled regex, message). Checked per logical line
# after comment/string stripping, so commentary may mention the constructs
# freely.
HOST_THREADING = [
    ("host-threading", re.compile(r"\bstd::(thread|jthread|mutex|recursive_mutex|"
                                  r"shared_mutex|timed_mutex|condition_variable|"
                                  r"condition_variable_any|counting_semaphore|"
                                  r"binary_semaphore|latch|barrier)\b"),
     "host threading primitive (use rko/sim/sync.hpp simulated locks)"),
    ("host-threading", re.compile(r'#\s*include\s*<(thread|mutex|shared_mutex|'
                                  r'condition_variable|semaphore|latch|barrier|'
                                  r'stop_token|future)>'),
     "host threading header (the simulation is single-host-threaded)"),
]
WALL_CLOCK = [
    ("wall-clock", re.compile(r"\bstd::chrono::(steady_clock|system_clock|"
                              r"high_resolution_clock)\b"),
     "wall-clock time (results must be in virtual Nanos)"),
    ("wall-clock", re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\s*\("),
     "wall-clock syscall (results must be in virtual Nanos)"),
    ("wall-clock", re.compile(r"(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "wall-clock time() (results must be in virtual Nanos)"),
]
HOST_RANDOM = [
    ("host-random", re.compile(r"(?<![\w:.])(rand|srand|random|drand48)\s*\(\s*\)"),
     "host RNG (use base::Rng so runs replay from a seed)"),
    ("host-random", re.compile(r"\bstd::(random_device|mt19937(_64)?|"
                               r"default_random_engine)\b"),
     "host RNG (use base::Rng so runs replay from a seed)"),
]
RAW_ASSERT = [
    ("raw-assert", re.compile(r"(?<![\w.])assert\s*\("),
     "raw assert() (use RKO_ASSERT / RKO_ASSERT_MSG)"),
]
# Since sharded homes (rko/home), a process's origin is whatever kernel
# created it and directory entries live at per-page homes — code that
# special-cases "origin is kernel 0" silently breaks both. Applies to
# src/ only: tests and benches legitimately pin workloads to kernel 0.
HARD_ORIGIN = [
    ("hard-coded-origin",
     re.compile(r"\borigin(?:_\b|\(\s*\))?\s*[=!]=\s*0\b(?!\.)"),
     "origin compared to literal kernel 0 (use site.is_origin() / "
     "home_map().home_of — any kernel can be an origin or a home)"),
    ("hard-coded-origin",
     re.compile(r"(?<![\w.])0\s*[=!]=\s*origin(?:_\b|\(\s*\))?"),
     "origin compared to literal kernel 0 (use site.is_origin() / "
     "home_map().home_of — any kernel can be an origin or a home)"),
    ("hard-coded-origin",
     re.compile(r"\bensure_site\s*\([^,()]+,\s*0\s*\)"),
     "ensure_site with a literal origin 0 (pass the real origin — any "
     "kernel can create a process)"),
]
# The home map is the one place that knows how many shards there are: a
# protocol path outside it that branches on the shard count grows back the
# second (one-shard) protocol the map exists to fold away.
HOME_FORK = [
    ("home-fork", re.compile(r"(\.|->)sharded\s*\("),
     "shard-count fork outside rko/home (ask the home map — home_of / "
     "homes / may_home — which answers for every shard count)"),
]

# A guard object constructed without a name is a temporary: it locks and
# immediately unlocks at the ';'. Matching is anchored at statement start
# and requires the ');' tail so declarations (`explicit LockGuard(Lock&)`,
# `LockGuard(const LockGuard&) = delete;`, `~LockGuard()`) never match.
UNNAMED_GUARD = re.compile(
    r"^\s*(?:sim::)?(?:Lock|Read|Write)Guard(?:<[^>]*>)?\s*\([^)]*\)\s*;")

# Tokens that suspend the calling actor (awaits). A SpinLock held across
# any of these deadlocks or interleaves the protocol mid-critical-section.
AWAIT = re.compile(r"(\.rpc\(|\brpc_all\(|\.rpc_all\(|sleep_for\(|"
                   r"\bbusy_wait\.(wait|wait_for)\(|\.send\()")
LOCK_ACQUIRE = re.compile(r"([A-Za-z_][\w.\->\[\]]*lock)\s*\.\s*lock\s*\(\s*\)")
LOCK_RELEASE = re.compile(r"([A-Za-z_][\w.\->\[\]]*lock)\s*\.\s*unlock\s*\(\s*\)")

# A loop header that walks a holder mask (the two idioms used by the
# ownership protocol: clear-lowest-set-bit iteration, or any loop seeded
# from holder_mask()). An .rpc( issued inside one is a serial fan-out.
SERIAL_FANOUT_LOOP = re.compile(
    r"\b(for|while)\s*\(.*(mask\s*&=\s*mask\s*-\s*1|holder_mask\s*\(\s*\))")
SERIAL_FANOUT_RPC = re.compile(r"\.rpc(_all)?\s*\(")
# A loop over a page-push list (PageOwner::push_pages, the one pipeline
# fault-around windows and working-set pulls share): an .rpc( inside one
# fetches or invalidates page by page where one scatter round over every
# source would overlap them.
PUSH_LIST_LOOP = re.compile(
    r"\bfor\s*\(.*(\bPushPage\b|:\s*(work|grants|pushes)\s*\))")

# A loop header that walks futex waiters (Waiter entries, waiter vectors,
# or a convoy queue). An .rpc( inside one is a per-waiter round trip in a
# wake path — the batched-grant protocol exists precisely to avoid that.
# Oneway .send( posts are allowed (no round trip to serialize on).
PER_WAITER_LOOP = re.compile(
    r"\b(for|while)\s*\(.*(\bWaiter\b|\bwaiters\b|\bwoken\b|\.queue\b)")

# Suppression comment: allow(rule) plus a mandatory ": reason" tail.
# Reasons keep suppressions honest — a year later nobody remembers why a
# bare allow was safe. A reasonless allow still suppresses, but warns.
ALLOW = re.compile(r"rko-lint:\s*allow\(([\w-]+)\)(\s*:\s*(\S[^*\n]*))?")


def in_sim_layer(path):
    return f"src{os.sep}rko{os.sep}sim{os.sep}" in path


def in_base_layer(path):
    return f"src{os.sep}rko{os.sep}base{os.sep}" in path


def in_home_layer(path):
    return f"src{os.sep}rko{os.sep}home{os.sep}" in path


def in_core_layer(path):
    return f"src{os.sep}rko{os.sep}core{os.sep}" in path


def strip_lines(lines):
    """Scans the file once, character by character, and yields one
    (code, comment) pair per input line: `code` with all comment text and
    string/char literal contents removed (literals collapse to ""/''),
    `comment` with the comment text of that line. Unlike a per-line regex
    this survives block comments spanning lines and literals containing
    `//` — both of which the old implementation got wrong."""
    CODE, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = CODE
    raw_delim = ""
    out = []
    for raw in lines:
        code_parts = []
        comment_parts = []
        i, n = 0, len(raw)
        while i < n:
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if state == CODE:
                if ch == "/" and nxt == "/":
                    comment_parts.append(raw[i + 2:].rstrip("\n"))
                    state = LINE_COMMENT
                    break  # rest of the physical line is comment
                if ch == "/" and nxt == "*":
                    state = BLOCK_COMMENT
                    i += 2
                    continue
                if ch == '"':
                    # R"delim( ... )delim" raw string?
                    if re.search(r'(?<![\w"])R$', "".join(code_parts)[-8:] or " "):
                        m = re.match(r'"([^\s()\\]{0,16})\(', raw[i:])
                        if m:
                            raw_delim = ")" + m.group(1) + '"'
                            code_parts.append('""')
                            state = RAW_STRING
                            i += m.end()
                            continue
                    code_parts.append('""')
                    state = STRING
                    i += 1
                    continue
                if ch == "'":
                    code_parts.append("''")
                    state = CHAR
                    i += 1
                    continue
                code_parts.append(ch)
                i += 1
            elif state == BLOCK_COMMENT:
                if ch == "*" and nxt == "/":
                    state = CODE
                    i += 2
                else:
                    comment_parts.append(ch)
                    i += 1
            elif state in (STRING, CHAR):
                quote = '"' if state == STRING else "'"
                if ch == "\\":
                    i += 2
                elif ch == quote:
                    state = CODE
                    i += 1
                else:
                    i += 1
            elif state == RAW_STRING:
                end = raw.find(raw_delim, i)
                if end < 0:
                    break  # literal continues on the next line
                i = end + len(raw_delim)
                state = CODE
        if state == LINE_COMMENT:
            state = CODE  # line comments end with the physical line
        out.append(("".join(code_parts), "".join(comment_parts)))
    return out


def parse_allow(comment):
    """Returns (rule, has_reason) from a comment's allow annotation, or
    (None, True) when the comment carries none."""
    m = ALLOW.search(comment)
    if not m:
        return None, True
    return m.group(1), m.group(3) is not None


def in_src_tree(path):
    return path.startswith(f"src{os.sep}") or f"{os.sep}src{os.sep}" in path


def applicable_rules(path):
    rules = list(RAW_ASSERT)
    rules += WALL_CLOCK
    if not in_sim_layer(path):
        rules += HOST_THREADING
        if not in_base_layer(path):  # base::Rng's engine lives in base/
            rules += HOST_RANDOM
    if in_src_tree(path):
        rules += HARD_ORIGIN
        if not in_home_layer(path):
            rules += HOME_FORK
    return rules


def lint_lines(path, lines, findings, warnings):
    rules = applicable_rules(path)
    stripped = strip_lines(lines)
    # lock-across-await state, brace-depth aware: `held` maps a lock
    # expression to (acquire line, acquire depth). An unlock at a deeper
    # depth than its acquire is conditional — it releases only on that
    # branch — so the entry is parked on `suspended` and restored when the
    # branch's block closes (the fall-through path is still holding).
    track_awaits = not in_sim_layer(path) and path.endswith(".cpp")
    track_fanout = in_core_layer(path)
    depth = 0
    held = {}       # lock expr -> (acquire line, acquire depth)
    suspended = []  # (restore when depth <= this, expr, acquire line, depth)
    fanout_loops = []  # (body depth, header line) of open holder-mask loops
    pending_fanout = None  # header seen, body brace not yet
    waiter_loops = []  # (body depth, header line) of open waiter loops
    pending_waiter = None
    for lineno, (raw, (code, comment)) in enumerate(zip(lines, stripped), 1):
        allowance, has_reason = parse_allow(comment)
        if allowance is not None and not has_reason:
            warnings.append((path, lineno, "bare-allow",
                             f"allow({allowance}) without a reason — write "
                             f"`rko-lint: allow({allowance}): <why>`"))
        if not code.strip():
            continue
        for rule, pattern, message in rules:
            if pattern.search(code) and allowance != rule:
                if rule == "raw-assert" and ("static_assert" in code or
                                             "_assert" in code):
                    continue
                findings.append((path, lineno, rule, message))
        if UNNAMED_GUARD.search(code) and allowance != "unnamed-guard":
            findings.append((path, lineno, "unnamed-guard",
                             "guard temporary unlocks at the ';' — name it "
                             "(e.g. `sim::LockGuard guard(lock);`)"))
        if track_fanout:
            if (fanout_loops and SERIAL_FANOUT_RPC.search(code) and
                    allowance != "serial-fanout"):
                body_depth, header_line, what, unit = fanout_loops[-1]
                findings.append((path, lineno, "serial-fanout",
                                 f"RPC inside a {what} loop (opened at "
                                 f"line {header_line}): per-{unit} round "
                                 f"trips serialize — batch the posts into "
                                 f"one rpc_scatter"))
                fanout_loops.clear()  # one report per loop nest
            if allowance != "serial-fanout":
                if SERIAL_FANOUT_LOOP.search(code):
                    pending_fanout = (lineno, "holder-mask", "victim")
                elif PUSH_LIST_LOOP.search(code):
                    pending_fanout = (lineno, "push-list", "page")
            if (waiter_loops and SERIAL_FANOUT_RPC.search(code) and
                    allowance != "per-waiter-rpc"):
                body_depth, header_line = waiter_loops[-1]
                findings.append((path, lineno, "per-waiter-rpc",
                                 f"RPC inside a waiter loop (opened at line "
                                 f"{header_line}): wake paths must not pay "
                                 f"one round trip per waiter — coalesce "
                                 f"grants into one rpc_scatter batch"))
                waiter_loops.clear()  # one report per loop nest
            if (PER_WAITER_LOOP.search(code) and
                    allowance != "per-waiter-rpc"):
                pending_waiter = lineno
        if track_awaits:
            if raw.startswith("}"):
                held.clear()  # end of a top-level function body
                suspended.clear()
            for m in LOCK_RELEASE.finditer(code):
                expr = m.group(1)
                if expr in held:
                    acq_line, acq_depth = held.pop(expr)
                    if depth > acq_depth:
                        # Conditional release: restore once this block ends.
                        suspended.append((depth - 1, expr, acq_line, acq_depth))
            if held and AWAIT.search(code) and allowance != "lock-across-await":
                expr, (acquired_at, _) = next(iter(held.items()))
                findings.append((path, lineno, "lock-across-await",
                                 f"awaits while '{expr}' is held "
                                 f"(locked at line {acquired_at}; use the "
                                 f"busy-bit pattern instead)"))
                held.clear()  # one report per critical section
                suspended.clear()
            for m in LOCK_ACQUIRE.finditer(code):
                held.setdefault(m.group(1), (lineno, depth))
        # Shared brace-depth bookkeeping (fanout scopes + await CFG).
        if track_fanout or track_awaits:
            for ch in code:
                if ch == "{":
                    depth += 1
                    if pending_fanout is not None:
                        fanout_loops.append((depth, *pending_fanout))
                        pending_fanout = None
                    if pending_waiter is not None:
                        waiter_loops.append((depth, pending_waiter))
                        pending_waiter = None
                elif ch == "}":
                    depth -= 1
                    while fanout_loops and fanout_loops[-1][0] > depth:
                        fanout_loops.pop()
                    while waiter_loops and waiter_loops[-1][0] > depth:
                        waiter_loops.pop()
                    while suspended and suspended[-1][0] >= depth:
                        _, expr, acq_line, acq_depth = suspended.pop()
                        held.setdefault(expr, (acq_line, acq_depth))
            if depth <= 0:
                depth = 0
                held.clear()
                suspended.clear()


def lint_file(path, findings, warnings):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.readlines()
    except OSError as e:
        findings.append((path, 0, "io", str(e)))
        return
    lint_lines(path, lines, findings, warnings)


def collect(paths):
    out = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
            continue
        for root, dirs, files in os.walk(p):
            dirs[:] = [d for d in dirs if not d.startswith(("build", "."))]
            for name in files:
                if name.endswith(CPP_EXTENSIONS):
                    out.append(os.path.join(root, name))
    return sorted(out)


# --------------------------------------------------------------------------
# Self-test: synthetic sources with known findings, run by lint.sh so a
# regression in the scanner itself fails the lint stage, not silently
# passes everything. Each case is (name, path, source, expected rules).
# --------------------------------------------------------------------------

SELF_TEST_CASES = [
    ("block comment spanning lines hides nothing real",
     "src/rko/core/a.cpp",
     """/* this block comment mentions std::mutex
        and std::thread across lines */
     int x = 0;
     """,
     []),
    ("banned token after a string containing //",
     "src/rko/core/b.cpp",
     """void f() { log("see https://example.com"); std::mutex m; }
     """,
     ["host-threading"]),
    ("banned token inside a string literal is not code",
     "src/rko/core/c.cpp",
     """const char* s = "std::mutex is banned; so is assert(";
     """,
     []),
    ("inline block comment, code after still checked",
     "src/rko/core/d.cpp",
     """void f() { /* std::thread */ std::mutex m; }
     """,
     ["host-threading"]),
    ("unnamed guard temporaries flagged, named and decls not",
     "src/rko/core/e.cpp",
     """struct ReadGuard {
         explicit ReadGuard(sim::RwLock& l) : lock(l) { lock.lock_shared(); }
         ReadGuard(const ReadGuard&) = delete;
     };
     void f() {
         sim::LockGuard guard(lock_);
         sim::LockGuard(lock_);
         ReadGuard(op_lock);
         WriteGuard<sim::RwLock>(op_lock);
     }
     """,
     ["unnamed-guard", "unnamed-guard", "unnamed-guard"]),
    ("conditional unlock does not release the fall-through path",
     "src/rko/core/f.cpp",
     """void f() {
         shard.lock.lock();
         if (bad) {
             shard.lock.unlock();
             return;
         }
         node.rpc(peer, m);
         shard.lock.unlock();
     }
     """,
     ["lock-across-await"]),
    ("await after an unconditional unlock is clean",
     "src/rko/core/g.cpp",
     """void f() {
         shard.lock.lock();
         touch();
         shard.lock.unlock();
         node.rpc(peer, m);
     }
     """,
     []),
    ("await inside the branch that unlocked is clean",
     "src/rko/core/h.cpp",
     """void f() {
         shard.lock.lock();
         if (retry) {
             shard.lock.unlock();
             self.sleep_for(10);
             return;
         }
         shard.lock.unlock();
     }
     """,
     []),
    ("basic lock-across-await still caught",
     "src/rko/core/i.cpp",
     """void f() {
         bucket.lock.lock();
         node.rpc(peer, m);
         bucket.lock.unlock();
     }
     """,
     ["lock-across-await"]),
    ("allow with a reason suppresses silently",
     "src/rko/core/j.cpp",
     """void f() {
         bucket.lock.lock();
         self.sleep_for(10); // rko-lint: allow(lock-across-await): test fixture
         bucket.lock.unlock();
     }
     """,
     []),
    ("bare allow suppresses but warns",
     "src/rko/core/k.cpp",
     """void f() {
         bucket.lock.lock();
         self.sleep_for(10); // rko-lint: allow(lock-across-await)
         bucket.lock.unlock();
     }
     """,
     [],
     ["bare-allow"]),
    ("static_assert exempt from raw-assert",
     "src/rko/core/l.cpp",
     """static_assert(sizeof(int) == 4);
     void f() { assert(x); }
     """,
     ["raw-assert"]),
    ("serial fanout in a holder-mask loop",
     "src/rko/core/m.cpp",
     """void f() {
         for (std::uint32_t mask = e.holder_mask(); mask; mask &= mask - 1) {
             node.rpc(lowest(mask), m);
         }
     }
     """,
     ["serial-fanout"]),
    ("per-page rpc in a push-list loop",
     "src/rko/core/m2.cpp",
     """void push(std::vector<PushPage>& work) {
         for (PushPage& p : work) {
             auto reply = k_.node().rpc(p.source, fetch(p.page), &st);
         }
     }
     """,
     ["serial-fanout"]),
    ("push-list loop collecting scatter posts is clean",
     "src/rko/core/m3.cpp",
     """void push(std::vector<PushPage>& work) {
         for (PushPage& p : work) {
             posts.push_back({p.source, fetch(p.page)});
         }
         auto replies = k_.node().rpc_scatter(std::move(posts));
     }
     """,
     []),
    ("wall clock via chrono",
     "src/rko/core/n.cpp",
     """auto t = std::chrono::steady_clock::now();
     """,
     ["wall-clock"]),
    ("per-waiter rpc loop in a wake path",
     "src/rko/core/o.cpp",
     """void wake_all() {
         for (const Waiter& w : bucket.queue) {
             node.rpc(w.kernel, grant);
         }
     }
     """,
     ["per-waiter-rpc"]),
    ("oneway send per waiter and batched scatter are clean",
     "src/rko/core/p.cpp",
     """void wake_all() {
         for (const Waiter& w : bucket.queue) {
             node.send(w.kernel, grant);
             items.push_back({w.kernel, grant});
         }
         node.rpc_scatter(std::move(items));
     }
     """,
     []),
    ("hard-coded origin-zero comparisons flagged in src",
     "src/rko/core/q.cpp",
     """void f(core::ProcessSite& site) {
         if (site.origin() == 0) fast_path();
         if (origin_ != 0) remote();
         if (0 == origin) local();
         k.ensure_site(pid, 0);
     }
     """,
     ["hard-coded-origin", "hard-coded-origin", "hard-coded-origin",
      "hard-coded-origin"]),
    ("origin routed through the site API is clean",
     "src/rko/core/r.cpp",
     """void f(core::ProcessSite& site) {
         if (site.is_origin()) fast_path();
         const auto home = map.home_of(pid, site.origin(), vpn);
         k.ensure_site(pid, site.origin());
         if (origin_count == 0) idle();
     }
     """,
     []),
    ("tests may pin kernel 0 freely",
     "tests/test_q.cpp",
     """void f() {
         if (origin == 0) spawn_here();
     }
     """,
     []),
    ("shard-count fork outside rko/home flagged",
     "src/rko/core/t.cpp",
     """void f(core::ProcessSite& site) {
         if (k_.home_map().sharded()) fan_out();
         if (!map.sharded ()) return;
         if (kernel->home_map().sharded()) sweep();
     }
     """,
     ["home-fork", "home-fork", "home-fork"]),
    ("the home map itself may branch on its shard count",
     "src/rko/home/home.hpp",
     """topo::KernelMask homes(const Map& map, topo::KernelId origin) {
         return map.sharded() ? map.eligible() : topo::kbit(origin);
     }
     """,
     []),
    ("hard-coded-origin allow with a reason suppresses",
     "src/rko/core/s.cpp",
     """void f() {
         if (origin == 0) smp(); // rko-lint: allow(hard-coded-origin): SMP baseline is one kernel
     }
     """,
     []),
]


def self_test():
    failures = 0
    for case in SELF_TEST_CASES:
        name, path, source, expected = case[0], case[1], case[2], case[3]
        expected_warnings = case[4] if len(case) > 4 else []
        findings, warnings = [], []
        lint_lines(path, source.splitlines(keepends=True), findings, warnings)
        got = sorted(rule for _, _, rule, _ in findings)
        got_warn = sorted(rule for _, _, rule, _ in warnings)
        if got != sorted(expected) or got_warn != sorted(expected_warnings):
            failures += 1
            print(f"lint_rko self-test FAILED: {name}", file=sys.stderr)
            print(f"  expected findings {sorted(expected)}, got {got}",
                  file=sys.stderr)
            print(f"  expected warnings {sorted(expected_warnings)}, "
                  f"got {got_warn}", file=sys.stderr)
            for f in findings:
                print(f"    {f}", file=sys.stderr)
    if failures:
        print(f"lint_rko: self-test: {failures} case(s) failed",
              file=sys.stderr)
        return 1
    print(f"lint_rko: self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


def main(argv):
    args = argv[1:]
    if "--self-test" in args:
        return self_test()
    paths = args or ["src", "tools", "tests", "bench", "examples"]
    paths = [p for p in paths if os.path.exists(p)]
    if not paths:
        print("lint_rko: no paths to lint", file=sys.stderr)
        return 2
    findings, warnings = [], []
    files = collect(paths)
    for path in files:
        lint_file(path, findings, warnings)
    for path, lineno, rule, message in warnings:
        print(f"{path}:{lineno}: warning: [{rule}] {message}")
    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: [{rule}] {message}")
    summary = (f"lint_rko: {len(findings)} finding(s) in {len(files)} file(s)"
               if findings else f"lint_rko: clean ({len(files)} files, "
                                f"{len(warnings)} warning(s))")
    print(summary, file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
