// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload stencil|fft-ib|kv|scale1024 --seed N --seconds S
//             --trace 0|1 [--commit SHA] [--out FILE]
//
// Runs one workload on the default sequential engine through the public
// API only (apps::spec_cluster_config, cluster::Cluster::run_tmk around
// apps::jacobi / apps::fft3d / kv::kv_serve, apps::spec_serial_reference,
// recost::recost). Untraced repeats run until S seconds have passed (at
// least kMinReps of them); host timings are their medians. Each repeat
// first times a fixed reference kernel, and the gated host metric is the
// workload's wall time in units of it (wall_ref): on a shared host whose
// speed drifts, the ratio holds still while raw seconds do not. With
// --trace 1 one extra traced pass (obs::Tracer + recost::CaptureSink) follows and
// its identity replay supplies per-layer virtual busy time.
//
// Each repeat runs in a forked child, so every repeat is "a process that
// ran that one workload": its set-up, timings and peak RSS do not inherit
// the heap an earlier repeat left behind. A child reports its facts
// (timings, counters, checks, simulation digest) and its spans back over a
// pipe. Every repeat is checked for correctness and for a digest identical
// to the first repeat's.
//
// Output: a human-readable report, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exit code 1
// when a correctness check failed, 2 on bad arguments.
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "apps/runspec.hpp"
#include "arith.hpp"
#include "cluster/cluster.hpp"
#include "kv/workload.hpp"
#include "obs/trace.hpp"
#include "recost/capture.hpp"
#include "recost/model.hpp"
#include "recost/recost.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tmkgm;
using perfbench::median;

constexpr int kMinReps = 3;
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 2027;

// ------------------------------------------------------------------ spans

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();  // shared with forked children

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Host-time spans around each public call the benchmark makes. Kept in
/// memory; written out once the benchmark ends.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int run = 0;      ///< shared by every span of one workload run
};

class Spans {
 public:
  int open(std::string name, int parent, int run) {
    return add(std::move(name), host_ns(), 0, parent, run);
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = host_ns();
  }
  int add(std::string name, std::int64_t start, std::int64_t end, int parent,
          int run) {
    spans_.push_back({std::move(name), start, end, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- workloads

struct Rate {
  const char* label;
  std::uint64_t gap_ns;  ///< per-node mean inter-arrival
  double rps;            ///< offered rate over 16 nodes
};
constexpr Rate kLadder[] = {{"r4k", 4'000'000, 4000},
                            {"r8k", 2'000'000, 8000},
                            {"r10k", 1'600'000, 10000},
                            {"r12k", 1'333'333, 12000}};
constexpr std::size_t kNominal = 1;  // r8k

struct Workload {
  std::string name;
  std::vector<apps::RunSpec> specs;  ///< one per kv rate, else one
  bool kv = false;
  /// Index of the spec whose run supplies virtual_ms and the per-layer
  /// metrics, and which the traced pass repeats.
  std::size_t nominal() const { return kv ? kNominal : 0; }
};

bool make_workload(const std::string& name, std::uint64_t seed, Workload& w) {
  apps::RunSpec s;
  s.seed = seed;
  s.nodes = 16;
  w.name = name;
  if (name == "stencil") {
    s.app = "jacobi";
    s.substrate = "fastgm";
    s.protocol = "lrc";
    s.size = 2048;
    s.iters = 40;
  } else if (name == "fft-ib") {
    s.app = "fft";
    s.substrate = "fastib";
    s.protocol = "adaptive";
    s.size = 64;
    s.iters = 8;
  } else if (name == "kv") {
    s.app = "kv";
    s.substrate = "udpgm";
    s.protocol = "hlrc";
    s.iters = 2000;  // requests per node at each rate
    s.kv_get_permille = 900;
    s.kv_zipf_permille = 990;
    w.kv = true;
    for (const Rate& r : kLadder) {
      s.kv_gap_ns = r.gap_ns;
      w.specs.push_back(s);
    }
    return true;
  } else if (name == "scale1024") {
    s.app = "jacobi";
    s.substrate = "udpgm";
    s.protocol = "lrc";
    s.nodes = 1024;
    s.size = 32;
    s.iters = 2;
    s.barrier_arity = 8;
    s.lock_directory = true;
    s.arena_mb = 2;
  } else {
    return false;
  }
  w.specs.push_back(s);
  return true;
}

/// KvParams exactly as tmkgm_run builds them from a kv RunSpec, so the
/// recorded spec string reproduces the run.
kv::KvParams kv_params(const apps::RunSpec& s) {
  kv::KvParams p;
  if (s.size) p.keys = s.size;
  if (s.iters) p.requests_per_node = s.iters;
  p.mean_gap_ns = s.kv_gap_ns;
  p.get_permille = s.kv_get_permille;
  p.zipf_permille = s.kv_zipf_permille;
  p.preload_keys = s.kv_preload;
  p.store.shards = s.kv_shards;
  p.store.slots_per_shard = s.kv_slots;
  p.seed = s.seed + 4004;
  return p;
}

using AppFn = std::function<apps::AppResult(tmk::Tmk&)>;

AppFn bind_app(const apps::RunSpec& s, kv::KvSummary* summary) {
  if (s.app == "jacobi") {
    apps::JacobiParams p;
    p.rows = p.cols = s.size;
    p.iters = s.iters;
    return [p](tmk::Tmk& t) { return apps::jacobi(t, p); };
  }
  if (s.app == "fft") {
    apps::FftParams p;
    p.n = s.size;
    p.iters = s.iters;
    return [p](tmk::Tmk& t) { return apps::fft3d(t, p); };
  }
  kv::KvParams p = kv_params(s);
  p.summary = summary;
  return [p](tmk::Tmk& t) { return kv::kv_serve(t, p); };
}

/// Latest scheduled arrival over all nodes, recomputed from the client
/// streams (the backlog rule's reference point).
SimTime latest_arrival(const apps::RunSpec& s) {
  const kv::KvParams p = kv_params(s);
  SimTime latest = 0;
  for (int node = 0; node < s.nodes; ++node) {
    kv::KvClientStream stream(p, node);
    SimTime last = 0;
    for (int k = 0; k < p.requests_per_node; ++k) {
      last = stream.next().arrival_offset;
    }
    latest = std::max(latest, last);
  }
  return latest;
}

std::uint64_t ops_per_run(const apps::RunSpec& s) {
  return s.app == "kv" ? static_cast<std::uint64_t>(s.nodes) *
                             static_cast<std::uint64_t>(s.iters)
                       : 1;
}

// ------------------------------------------------------------------- runs

/// The traced pass's instruments.
struct Instruments {
  obs::Tracer tracer;
  std::unique_ptr<recost::CaptureSink> capture;
};

struct Outcome {
  cluster::RunResult run;
  apps::AppResult app;  ///< checksum from node 0, max elapsed over nodes
  kv::KvSummary kv;
  double setup_s = 0, run_s = 0, teardown_s = 0;
  bool threw = false;
  std::string error;
};

Outcome run_once(const apps::RunSpec& spec, Spans& spans, int parent,
                 int run_id, Instruments* ins) {
  Outcome out;
  const int cfg_span = spans.open("config", parent, run_id);
  cluster::ClusterConfig cfg;
  std::string error;
  if (!apps::spec_cluster_config(spec, cfg, error)) {
    throw std::invalid_argument(error);
  }
  if (ins != nullptr) {
    cfg.tracer = &ins->tracer;
    ins->capture = std::make_unique<recost::CaptureSink>(
        spec.nodes, recost::field_values(cfg.cost));
    cfg.capture = ins->capture.get();
  }
  cluster::Cluster cluster(cfg);
  const AppFn app = bind_app(spec, &out.kv);
  spans.close(cfg_span);

  std::int64_t first = -1, last = -1;
  const std::int64_t call = host_ns();
  try {
    out.run = cluster.run_tmk([&](tmk::Tmk& t, cluster::NodeEnv& env) {
      if (first < 0) first = host_ns();
      const apps::AppResult r = app(t);
      if (env.id == 0) out.app.checksum = r.checksum;
      out.app.elapsed = std::max(out.app.elapsed, r.elapsed);
      last = host_ns();
    });
  } catch (const std::exception& e) {  // CheckError, deadlock
    out.threw = true;
    out.error = e.what();
  }
  const std::int64_t ret = host_ns();
  if (first < 0) first = ret;
  if (last < first) last = first;
  spans.add("cluster.setup", call, first, parent, run_id);
  spans.add("cluster.run", first, last, parent, run_id);
  spans.add("cluster.teardown", last, ret, parent, run_id);
  out.setup_s = secs(first - call);
  out.run_s = secs(last - first);
  out.teardown_s = secs(ret - last);
  return out;
}

/// FNV-1a over everything the simulation decided: a host-only change
/// must leave it unchanged.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  void word(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte(static_cast<unsigned char>(v >> (b * 8)));
  }
};

std::uint64_t digest(const Outcome& o) {
  Digest d;
  d.word(static_cast<std::uint64_t>(o.run.duration));
  d.word(o.run.events);
  d.word(static_cast<std::uint64_t>(o.app.elapsed));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &o.app.checksum, sizeof bits);
  d.word(bits);
  for (unsigned char c : o.run.counters.format_table()) d.byte(c);
  const kv::KvSummary& k = o.kv;
  for (std::uint64_t b : k.hist.buckets()) d.word(b);
  for (std::uint64_t v :
       {k.requests, k.late_arrivals, k.occupied_slots,
        static_cast<std::uint64_t>(k.span), k.store.gets, k.store.puts,
        k.store.hits, k.store.misses, k.store.inserts, k.store.updates,
        k.store.rejects_full, k.store.bad_requests, k.store.probe_steps}) {
    d.word(v);
  }
  return d.h;
}

/// Correctness of one run, as operations attempted and failed.
perfbench::OpTally verify_run(const apps::RunSpec& spec, const Outcome& o,
                              bool have_ref, double expected) {
  if (spec.app != "kv") {
    const bool match =
        !have_ref || std::abs(o.app.checksum - expected) <= 1e-6;
    return perfbench::app_ops(o.threw, match);
  }
  const kv::KvSummary& k = o.kv;
  perfbench::KvAccounting a;
  a.expected = ops_per_run(spec);
  a.requests = k.requests;
  a.responses = k.hist.count();
  a.gets = k.store.gets;
  a.puts = k.store.puts;
  a.bad_requests = k.store.bad_requests;
  a.rejects_full = k.store.rejects_full;
  return perfbench::kv_ops(o.threw, a);
}

// ------------------------------------------------------------------ facts

/// What a child process learned about one run, as named numbers. Doubles
/// travel as %.17g text, so they arrive bit-exact.
class Facts {
 public:
  void set(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    m_[k] = buf;
  }
  void set_u64(const std::string& k, std::uint64_t v) {
    m_[k] = std::to_string(v);
  }
  void set_raw(const std::string& k, const std::string& v) { m_[k] = v; }
  double num(const std::string& k) const {
    const auto it = m_.find(k);
    return it == m_.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  }
  std::uint64_t u64(const std::string& k) const {
    const auto it = m_.find(k);
    return it == m_.end() ? 0
                          : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  const std::map<std::string, std::string>& all() const { return m_; }

 private:
  std::map<std::string, std::string> m_;
};

Facts facts_of(const apps::RunSpec& spec, const Outcome& o, bool have_ref,
               double expected) {
  Facts f;
  const perfbench::OpTally ops = verify_run(spec, o, have_ref, expected);
  f.set_u64("attempted", ops.attempted);
  f.set_u64("failed", ops.failed);
  f.set_u64("digest", digest(o));
  f.set("setup_s", o.setup_s);
  f.set("run_s", o.run_s);
  f.set("teardown_s", o.teardown_s);
  f.set_u64("duration_ns", static_cast<std::uint64_t>(o.run.duration));
  f.set_u64("elapsed_ns", static_cast<std::uint64_t>(o.app.elapsed));
  f.set_u64("events", o.run.events);
  f.set_u64("handoffs", o.run.eng.handoffs);
  f.set_u64("pinned_bytes_node0", o.run.pinned_bytes_node0);
  for (const auto& [name, value] : o.run.counters.rows()) {
    f.set_u64("c." + name, value);
  }
  const kv::KvSummary& k = o.kv;
  f.set_u64("kv.span_ns", static_cast<std::uint64_t>(k.span));
  f.set_u64("kv.requests", k.requests);
  f.set_u64("kv.late_arrivals", k.late_arrivals);
  f.set_u64("kv.samples", k.hist.count());
  f.set_u64("kv.p50_ns", k.hist.percentile_ns(0.5));
  f.set_u64("kv.p99_ns", k.hist.percentile_ns(0.99));
  f.set_u64("kv.p999_ns", k.hist.percentile_ns(0.999));
  f.set_u64("kv.gets", k.store.gets);
  f.set_u64("kv.hits", k.store.hits);
  f.set_u64("kv.probe_steps", k.store.probe_steps);
  return f;
}

/// Adds the traced pass's facts: tracer rollups and the identity replay.
void add_traced_facts(Facts& f, const Instruments& ins, Spans& spans,
                      int parent, int run_id) {
  std::vector<double> xfer_us;
  for (const obs::TraceEvent& e : ins.tracer.events()) {
    if (e.cat == obs::Cat::Net && e.kind == obs::Kind::NetMsg) {
      xfer_us.push_back(static_cast<double>(e.dur) / 1e3);
    }
  }
  f.set("t.transfer_us_p50", perfbench::percentile(xfer_us, 0.5));
  f.set("t.transfer_us_p99", perfbench::percentile(xfer_us, 0.99));
  f.set_u64("t.transfer_samples", xfer_us.size());
  f.set_u64("t.trace_events", ins.tracer.size());
  const recost::CaptureData& cap = ins.capture->data();
  f.set_u64("t.capture_records", cap.records.size());

  const int rs = spans.open("recost.replay", parent, run_id);
  const std::int64_t r0 = host_ns();
  recost::Result r;
  bool exact = false;
  try {
    r = recost::recost(cap, cap.fields, /*verify_identity=*/true);
    exact = r.duration == cap.orig_duration &&
            r.cat_busy == cap.orig_cat_busy;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "identity replay diverged: %s\n", e.what());
  }
  f.set("t.replay_s", secs(host_ns() - r0));
  spans.close(rs);
  f.set_u64("t.identity_exact", exact ? 1 : 0);
  for (int c = 0; c < obs::kNumCats; ++c) {
    f.set_u64(std::string("t.busy_ns.") + obs::to_string(static_cast<obs::Cat>(c)),
              static_cast<std::uint64_t>(r.cat_busy[static_cast<std::size_t>(c)]));
  }
  const int n = static_cast<int>(r.node_busy.size());
  double busy = 0, blocked = 0, blocked_max = 0;
  for (int i = 0; i < n; ++i) {
    busy += static_cast<double>(r.node_busy[static_cast<std::size_t>(i)]);
    const auto b = static_cast<double>(r.node_blocked(i));
    blocked += b;
    blocked_max = std::max(blocked_max, b);
  }
  f.set("t.node_busy_ns_mean", n ? busy / n : 0.0);
  f.set("t.node_blocked_ns_mean", n ? blocked / n : 0.0);
  f.set("t.node_blocked_ns_max", blocked_max);
}

// ---------------------------------------------------------------- children

/// One repeat as reported by its child process.
struct RepResult {
  bool ok = false;
  std::vector<Facts> specs;  ///< one per spec the child ran
  double rss_mb = 0;         ///< the child's peak RSS
  std::vector<Span> spans;   ///< parent indices local to this list
};

std::string serialize(const std::vector<Facts>& specs, double rss_mb,
                      const std::vector<Span>& spans) {
  std::ostringstream o;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (const auto& [k, v] : specs[i].all()) {
      o << "f " << i << ' ' << k << ' ' << v << '\n';
    }
  }
  for (const Span& s : spans) {
    o << "s " << s.parent << ' ' << s.run << ' ' << s.start_ns << ' '
      << s.end_ns << ' ' << s.name << '\n';
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", rss_mb);
  o << "r " << buf << "\nend\n";
  return o.str();
}

RepResult parse(const std::string& blob) {
  RepResult r;
  std::istringstream in(blob);
  std::string tag;
  while (in >> tag) {
    if (tag == "f") {
      std::size_t i = 0;
      std::string k, v;
      in >> i >> k >> v;
      if (r.specs.size() <= i) r.specs.resize(i + 1);
      r.specs[i].set_raw(k, v);
    } else if (tag == "s") {
      Span s;
      in >> s.parent >> s.run >> s.start_ns >> s.end_ns >> s.name;
      r.spans.push_back(s);
    } else if (tag == "r") {
      in >> r.rss_mb;
    } else if (tag == "end") {
      r.ok = true;
    }
  }
  return r;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct References {
  std::vector<bool> have;
  std::vector<double> expected;
};

/// The benchmark's own fixed host kernel: a pointer chase through a 16 MiB
/// random cycle, then an integer hash loop. Timed in each repeat's process
/// just before the workload, it measures how fast the host runs at that
/// moment, independently of the program under test. Its buffer comes from
/// mmap, not malloc, and is unmapped before the workload starts, so the
/// allocator state and peak RSS the workload sees are its own.
double reference_kernel_s() {
  constexpr std::size_t kWords = std::size_t{1} << 22;
  void* mem = mmap(nullptr, kWords * sizeof(std::uint32_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("mmap failed");
  auto* next = static_cast<std::uint32_t*>(mem);
  for (std::size_t i = 0; i < kWords; ++i) {
    next[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 88172645463325252ULL;
  for (std::size_t i = kWords - 1; i > 0; --i) {  // Sattolo: one cycle
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  const std::int64_t t0 = host_ns();
  std::uint32_t idx = 0;
  std::uint64_t h = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    idx = next[idx];
    h += idx;
  }
  for (std::uint64_t i = 0; i < 30'000'000; ++i) {
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h += i;
  }
  volatile std::uint64_t sink = h;  // the loops finish before the clock read
  (void)sink;
  const double s = secs(host_ns() - t0);
  munmap(mem, kWords * sizeof(std::uint32_t));
  return s;
}

/// Body of a child: runs every spec (untraced) or the nominal spec
/// (traced) and returns the serialized report.
std::string child_body(const Workload& w, const References& refs, int run_id,
                       bool traced) {
  Spans spans;
  std::vector<Facts> out;
  if (traced) {
    const std::size_t i = w.nominal();
    Instruments ins;
    const Outcome o = run_once(w.specs[i], spans, -1, run_id, &ins);
    if (o.threw) std::fprintf(stderr, "run threw: %s\n", o.error.c_str());
    Facts f = facts_of(w.specs[i], o, refs.have[i], refs.expected[i]);
    f.set("t.run_s", o.run_s);
    add_traced_facts(f, ins, spans, -1, run_id);
    out.push_back(std::move(f));
  } else {
    const double ref_s = reference_kernel_s();
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
      const int parent =
          w.kv ? spans.open(std::string("ladder.") + kLadder[i].label, -1,
                            run_id)
               : -1;
      const Outcome o = run_once(w.specs[i], spans, parent, run_id, nullptr);
      if (w.kv) spans.close(parent);
      if (o.threw) std::fprintf(stderr, "run threw: %s\n", o.error.c_str());
      out.push_back(facts_of(w.specs[i], o, refs.have[i], refs.expected[i]));
    }
    out[0].set("ref_s", ref_s);
  }
  return serialize(out, peak_rss_mb(), spans.all());
}

/// Runs one repeat in a forked child and collects its report. A child that
/// crashes or reports nothing yields ok = false.
RepResult run_child(const Workload& w, const References& refs, int run_id,
                    bool traced) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string blob = child_body(w, refs, run_id, traced);
      std::size_t off = 0;
      while (off < blob.size()) {
        const ssize_t n = write(fds[1], blob.data() + off, blob.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "repeat failed: %s\n", e.what());
      code = 1;
    }
    close(fds[1]);
    std::fflush(stderr);
    _exit(code);
  }
  close(fds[1]);
  std::string blob;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    blob.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  RepResult r = parse(blob);
  const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!clean) {
    std::fprintf(stderr, "repeat %d: child %s %d\n", run_id,
                 WIFSIGNALED(status) ? "killed by signal" : "exited with",
                 WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status));
  }
  r.ok = r.ok && clean &&
         r.specs.size() == (traced ? 1u : w.specs.size());
  return r;
}

/// Appends a child's spans under `root`, re-basing their parent indices.
void adopt_spans(Spans& spans, const RepResult& r, int root) {
  const int base = static_cast<int>(spans.all().size());
  for (const Span& s : r.spans) {
    spans.add(s.name, s.start_ns, s.end_ns,
              s.parent < 0 ? root : base + s.parent, s.run);
  }
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count and similar, human output only
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double ms_of(double ns) { return ns / 1e6; }

std::string samples_note(double q, std::uint64_t n) {
  std::string s = "n=" + std::to_string(n);
  if (!perfbench::percentile_supported(q, n)) s += ", fewer than 10 beyond";
  return s;
}

std::string format_value(double v) {
  char buf[64];
  if (!std::isfinite(v)) v = 0.0;
  if (v == std::floor(v) && std::abs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.12g", v);
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) o += ", ";
    o += "\"" + ms[i].name + "\": {\"value\": " + format_value(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return o + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-26s %18s %-12s%s%s\n", m.name.c_str(),
                format_value(m.value).c_str(), m.unit.c_str(),
                m.note.empty() ? "" : " ", m.note.c_str());
  }
}

/// The kv ladder figures: p99 and late arrivals at each rate, the nominal
/// rate's median and p99.9, and the highest rate within the limit. Zero
/// rows on the other workloads keep the metric set fixed.
std::vector<Metric> ladder_metrics(const Workload& w,
                                   const std::vector<Facts>& first) {
  std::vector<Metric> out;
  std::vector<perfbench::LadderRow> rows;
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    const std::string l = kLadder[i].label;
    const Facts none;
    const Facts& f = w.kv ? first[i] : none;
    const std::uint64_t n = f.u64("kv.samples");
    out.push_back({"kv_p99_ms." + l, ms_of(f.num("kv.p99_ns")), "ms_virtual",
                   w.kv ? samples_note(0.99, n) : ""});
    out.push_back({"kv_samples." + l, static_cast<double>(n), "count", ""});
    out.push_back({"kv.late_arrivals." + l, f.num("kv.late_arrivals"),
                   "count", ""});
    if (w.kv) {
      rows.push_back({kLadder[i].rps,
                      static_cast<std::int64_t>(f.u64("kv.p99_ns")),
                      static_cast<std::int64_t>(f.u64("kv.span_ns")),
                      latest_arrival(w.specs[i]), f.u64("failed")});
    }
  }
  const Facts none;
  const Facts& f = w.kv ? first[kNominal] : none;
  const std::uint64_t n = f.u64("kv.samples");
  out.push_back({"kv_p50_ms.r8k", ms_of(f.num("kv.p50_ns")), "ms_virtual",
                 w.kv ? samples_note(0.5, n) : ""});
  out.push_back({"kv_p999_ms.r8k", ms_of(f.num("kv.p999_ns")), "ms_virtual",
                 w.kv ? samples_note(0.999, n) : ""});
  out.push_back({"kv_late_share.r8k",
                 ratio(f.num("kv.late_arrivals"), f.num("kv.requests")),
                 "ratio", ""});
  out.push_back({"kv_max_rate_rps", perfbench::max_rate_rps(rows),
                 "rps_virtual",
                 w.kv ? "p99 <= 5 ms, span <= latest arrival + 5 ms, no "
                        "failed request"
                      : ""});
  for (const perfbench::LadderRow& r : rows) {
    std::printf(
        "ladder %5.0f rps: p99 %.3f ms, span %.3f ms = latest arrival "
        "%.3f ms + %.3f ms, failed %llu -> %s\n",
        r.rate_rps, ms_of(static_cast<double>(r.p99_ns)),
        ms_of(static_cast<double>(r.span_ns)),
        ms_of(static_cast<double>(r.latest_arrival_ns)),
        ms_of(static_cast<double>(r.span_ns - r.latest_arrival_ns)),
        static_cast<unsigned long long>(r.failed),
        perfbench::meets_limit(r) ? "within limit" : "over limit");
  }
  return out;
}

/// Per-layer metrics from the nominal spec's first untraced repeat (exact
/// counts), the untraced host medians, and the traced pass.
std::vector<Metric> layer_metrics(const Facts& f, const Facts& t,
                                  double run_med, double teardown_med) {
  auto count = [&](const char* name) {
    return f.num(std::string("c.") + name);
  };
  auto busy_ms = [&](obs::Cat cat) {
    return ms_of(t.num(std::string("t.busy_ns.") + obs::to_string(cat)));
  };
  const double events = f.num("events");
  const std::uint64_t xfer_n = t.u64("t.transfer_samples");
  std::vector<Metric> m = {
      {"cluster.run_s", run_med, "s", "median, first entry to last exit"},
      {"cluster.teardown_s", teardown_med, "s", "median"},
      {"cluster.pinned_mb_node0", f.num("pinned_bytes_node0") / (1 << 20),
       "MiB", ""},
      {"sim.events", events, "count", ""},
      {"sim.handoffs", f.num("handoffs"), "count", ""},
      {"sim.host_ns_per_event", ratio(run_med * 1e9, events), "ns/event", ""},
      {"net.messages", count("net.messages"), "count", ""},
      {"net.bytes", count("net.bytes"), "B", ""},
      {"net.bytes_per_msg", ratio(count("net.bytes"), count("net.messages")),
       "B/msg", ""},
      {"net.transfer_us_p50", t.num("t.transfer_us_p50"), "us_virtual",
       samples_note(0.5, xfer_n)},
      {"net.transfer_us_p99", t.num("t.transfer_us_p99"), "us_virtual",
       samples_note(0.99, xfer_n)},
      {"net.transfer_samples", static_cast<double>(xfer_n), "count", ""},
      {"sub.requests_sent", count("sub.requests_sent"), "count", ""},
      {"sub.forwards_sent", count("sub.forwards_sent"), "count", ""},
      {"sub.retransmits", count("sub.retransmits"), "count", ""},
      {"sub.retransmit_share",
       ratio(count("sub.retransmits"), count("sub.requests_sent")), "ratio",
       "resends per request"},
      {"sub.busy_ms", busy_ms(obs::Cat::Sub), "ms_virtual", "sum over nodes"},
      {"udp.datagrams_sent", count("udp.datagrams_sent"), "count", ""},
      {"udp.drops",
       count("udp.drops_overflow") + count("udp.drops_random") +
           count("udp.drops_unbound"),
       "count", ""},
      {"udp.busy_ms", busy_ms(obs::Cat::Udp), "ms_virtual", "sum over nodes"},
      {"gm.busy_ms", busy_ms(obs::Cat::Gm), "ms_virtual", "sum over nodes"},
  };
  for (const char* name :
       {"tmk.read_faults", "tmk.write_faults", "tmk.page_fetches",
        "tmk.diff_requests", "tmk.diffs_created", "tmk.diff_bytes_created",
        "tmk.diffs_applied", "tmk.diff_bytes_applied", "tmk.twins_created",
        "tmk.invalidations", "tmk.intervals_created", "tmk.barriers",
        "tmk.lock_acquires"}) {
    m.push_back({name, count(name), std::strstr(name, "bytes") ? "B" : "count",
                 ""});
  }
  m.push_back({"tmk.diff_apply_ratio",
               ratio(count("tmk.diffs_applied"), count("tmk.diffs_created")),
               "ratio", "diffs applied per diff created"});
  m.push_back({"tmk.lock_remote_share",
               ratio(count("tmk.lock_remote_acquires"),
                     count("tmk.lock_acquires")),
               "ratio", ""});
  m.push_back({"tmk.busy_ms", busy_ms(obs::Cat::Tmk), "ms_virtual",
               "sum over nodes"});
  for (const char* name :
       {"proto.promotes", "proto.demotes", "proto.home_fetches",
        "proto.prefetch_pages", "proto.rdma_flushes",
        "proto.rdma_flush_bytes", "proto.leases_denied",
        "proto.lease_catchups", "proto.flush_msgs", "proto.flush_bytes",
        "proto.home_applies"}) {
    m.push_back({name, count(name), std::strstr(name, "bytes") ? "B" : "count",
                 ""});
  }
  m.push_back({"node.busy_ms", ms_of(t.num("t.node_busy_ns_mean")),
               "ms_virtual", "mean over nodes"});
  m.push_back({"node.blocked_ms_mean", ms_of(t.num("t.node_blocked_ns_mean")),
               "ms_virtual", "run span - busy, mean over nodes"});
  m.push_back({"node.blocked_ms_max", ms_of(t.num("t.node_blocked_ns_max")),
               "ms_virtual", ""});
  m.push_back({"kv.hit_ratio", ratio(f.num("kv.hits"), f.num("kv.gets")),
               "ratio", ""});
  m.push_back({"kv.probe_steps_per_op",
               ratio(f.num("kv.probe_steps"), f.num("kv.requests")),
               "steps/op", ""});
  return m;
}

struct HostContext {
  long nproc = 0;
  std::string compiler;
  std::string commit;
  double load[3] = {0, 0, 0};
};

HostContext host_context(const std::string& commit) {
  HostContext h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.commit = commit;
  if (getloadavg(h.load, 3) != 3) h.load[0] = h.load[1] = h.load[2] = -1;
  return h;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload stencil|fft-ib|kv|scale1024 "
               "--seed N --seconds S --trace 0|1 [--commit SHA] "
               "[--out FILE]\n"
               "  default seed %llu; held-out seed %llu\n",
               why.c_str(), static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--out") {
      a.out = v;
    } else {
      usage("unknown option " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

void write_results(const std::string& path, const Args& args,
                   const HostContext& host, const Workload& w,
                   const std::vector<Metric>& e2e,
                   const std::vector<Metric>& layer, const Spans& spans) {
  std::ofstream f(path);
  f << "{\n  \"workload\": \"" << w.name << "\", \"seed\": " << args.seed
    << ", \"trace\": " << args.trace << ",\n  \"host\": {\"nproc\": "
    << host.nproc << ", \"compiler\": \"" << json_escape(host.compiler)
    << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"commit\": \"" << json_escape(host.commit) << "\", \"loadavg\": ["
    << host.load[0] << ", " << host.load[1] << ", " << host.load[2]
    << "], \"google_benchmark\": \"not used\"},\n  \"specs\": [";
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    f << (i ? ", " : "") << "\"" << w.specs[i].to_string() << "\"";
  }
  f << "],\n  \"end_to_end\": " << metrics_json(e2e)
    << ",\n  \"per_layer\": " << metrics_json(layer) << ",\n  \"spans\": [";
  const auto& all = spans.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}";
  }
  f << "\n  ]\n}\n";
  if (!f) std::fprintf(stderr, "could not write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const HostContext host = host_context(args.commit);
  Workload w;
  if (!make_workload(args.workload, args.seed, w)) {
    usage("unknown workload " + args.workload);
  }
  const std::size_t n_specs = w.specs.size();
  const std::size_t nominal = w.nominal();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf(
      "host: nproc=%ld compiler=\"%s\" build=%s commit=%s "
      "loadavg=%.2f,%.2f,%.2f engine=seq google-benchmark=not-used\n",
      host.nproc, host.compiler.c_str(), PERFBENCH_BUILD_TYPE,
      host.commit.c_str(), host.load[0], host.load[1], host.load[2]);
  for (const apps::RunSpec& s : w.specs) {
    std::printf("spec: %s\n", s.to_string().c_str());
  }

  Spans spans;
  // Run 0: the serial references every repeat is checked against.
  References refs;
  for (const apps::RunSpec& s : w.specs) {
    const int id = spans.open("apps.verify", -1, 0);
    double e = 0;
    refs.have.push_back(apps::spec_serial_reference(s, e));
    refs.expected.push_back(e);
    spans.close(id);
  }

  // Untraced repeats, one child process each.
  perfbench::OpTally ops;
  bool deterministic = true;
  std::vector<Facts> first;
  std::vector<double> wall, wall_ref, ref, setup, rss, run_s, teardown;
  const std::int64_t t_start = host_ns();
  int reps = 0;
  while (reps < kMinReps || secs(host_ns() - t_start) < args.seconds) {
    ++reps;
    const int root = spans.open("workload", -1, reps);
    const RepResult r = run_child(w, refs, reps, false);
    spans.close(root);
    adopt_spans(spans, r, root);
    if (!r.ok) {
      for (const apps::RunSpec& s : w.specs) {
        ops.add({ops_per_run(s), ops_per_run(s)});
      }
      continue;
    }
    double rep_wall = 0, rep_setup = 0;
    for (std::size_t i = 0; i < n_specs; ++i) {
      const Facts& f = r.specs[i];
      ops.add({f.u64("attempted"), f.u64("failed")});
      rep_setup += f.num("setup_s");
      rep_wall += f.num("setup_s") + f.num("run_s") + f.num("teardown_s");
      if (!first.empty() && f.u64("digest") != first[i].u64("digest")) {
        deterministic = false;
      }
    }
    run_s.push_back(r.specs[nominal].num("run_s"));
    teardown.push_back(r.specs[nominal].num("teardown_s"));
    wall.push_back(rep_wall);
    ref.push_back(r.specs[0].num("ref_s"));
    wall_ref.push_back(rep_wall / ref.back());
    setup.push_back(rep_setup);
    rss.push_back(r.rss_mb);
    if (first.empty()) first = r.specs;
  }
  if (first.empty()) first.resize(n_specs);

  // The traced pass, on the nominal spec.
  Facts traced;
  bool identity_exact = false;
  if (args.trace) {
    const int run_id = reps + 1;
    const int root = spans.open("workload.traced", -1, run_id);
    const RepResult r = run_child(w, refs, run_id, true);
    spans.close(root);
    adopt_spans(spans, r, root);
    if (r.ok) {
      traced = r.specs[0];
      ops.add({traced.u64("attempted"), traced.u64("failed")});
      if (traced.u64("digest") != first[nominal].u64("digest")) {
        deterministic = false;
      }
      identity_exact = traced.u64("t.identity_exact") == 1;
    } else {
      const std::uint64_t n = ops_per_run(w.specs[nominal]);
      ops.add({n, n});
    }
  }

  // ---------------------------------------------------------- reporting
  std::printf("repeats: %d untraced%s, one process each\n", reps,
              args.trace ? " + 1 traced" : "");
  for (std::size_t i = 0; i < n_specs; ++i) {
    std::printf("digest %s%s%s: virtual_ns=%llu counters_fnv=%016llx\n",
                w.name.c_str(), w.kv ? "." : "", w.kv ? kLadder[i].label : "",
                static_cast<unsigned long long>(first[i].u64("duration_ns")),
                static_cast<unsigned long long>(first[i].u64("digest")));
  }

  const std::string of_reps = "median of " + std::to_string(wall.size());
  const std::vector<Metric> e2e = {
      {"wall_ref", median(wall_ref), "ratio",
       "wall_s / host.ref_s, " + of_reps},
      {"setup_s", median(setup), "s", of_reps},
      {"peak_rss_mb", median(rss), "MB", of_reps},
      {"virtual_ms",
       ms_of(first[nominal].num(w.kv ? "kv.span_ns" : "elapsed_ns")),
       "ms_virtual", w.kv ? "serving span at r8k" : "app parallel phase"},
  };
  // Raw host seconds: what a user waits, and how fast the host ran.
  const std::vector<Metric> host_raw = {
      {"wall_s", median(wall), "s", of_reps},
      {"host.ref_s", median(ref), "s", "reference kernel, " + of_reps},
  };
  const std::vector<Metric> ladder = ladder_metrics(w, first);
  const Metric failed_share = {"failed_share", ops.failed_share(), "ratio",
                               std::to_string(ops.failed) + " of " +
                                   std::to_string(ops.attempted) + " ops"};

  std::vector<Metric> e2e_all = e2e;
  e2e_all.push_back(failed_share);
  if (!args.trace) {  // with --trace 1 these print among the per-layer rows
    e2e_all.insert(e2e_all.end(), host_raw.begin(), host_raw.end());
    if (w.kv) e2e_all.insert(e2e_all.end(), ladder.begin(), ladder.end());
  }
  print_metrics("end-to-end:", e2e_all);

  std::vector<Metric> layer;
  if (args.trace) {
    const double run_med = median(run_s);
    layer = host_raw;
    const std::vector<Metric> m =
        layer_metrics(first[nominal], traced, run_med, median(teardown));
    layer.insert(layer.end(), m.begin(), m.end());
    layer.insert(layer.end(), ladder.begin(), ladder.end());
    layer.push_back(failed_share);
    layer.push_back({"obs.trace_events", traced.num("t.trace_events"),
                     "count", ""});
    layer.push_back({"obs.overhead_ratio",
                     ratio(traced.num("t.run_s"), run_med), "ratio",
                     "traced / untraced cluster.run_s"});
    layer.push_back({"recost.capture_records",
                     traced.num("t.capture_records"), "count", ""});
    layer.push_back({"recost.replay_s", traced.num("t.replay_s"), "s", ""});
    layer.push_back({"recost.identity_exact", identity_exact ? 1.0 : 0.0,
                     "flag", ""});
    print_metrics("per-layer:", layer);
  }

  if (!deterministic) {
    std::fprintf(stderr, "simulation digest differed between passes\n");
  }
  if (args.trace && !identity_exact) {
    std::fprintf(stderr, "identity replay was not bit-exact\n");
  }
  const bool correct =
      ops.failed == 0 && deterministic && (!args.trace || identity_exact);

  if (!args.out.empty()) {
    write_results(args.out, args, host, w, e2e_all, layer, spans);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed),
              metrics_json(args.trace ? layer : e2e).c_str());
  return correct ? 0 : 1;
}
