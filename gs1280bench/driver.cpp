/**
 * @file
 * gs1280bench driver: runs one fixed simulator workload repeatedly
 * for a host-time budget and prints every repetition's host times,
 * simulated result, per-layer registry counts and correctness
 * verdict as one JSON object on stdout. run.py builds this program,
 * aggregates the repetitions and prints the benchmark's result line.
 *
 *   gs1280bench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Every repetition rebuilds the workload from --seed, so all of them
 * simulate the same inputs and their simulated statistics must
 * repeat bit for bit. With --trace 1 untraced and traced repetitions
 * alternate; a traced one records spans around each call the driver
 * makes into a simulator layer and then times the layer probes.
 *
 * The driver uses only the simulator's public interfaces (Machine,
 * runSynthetic, FaultInjector, EventQueue, CoherentNode, the wl::
 * generators and the telemetry Registry) and never edits them.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "coherence/node.hh"
#include "fault/degraded.hh"
#include "fault/injector.hh"
#include "mem/address.hh"
#include "net/network.hh"
#include "net/synthetic.hh"
#include "sim/context.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/telemetry.hh"
#include "system/machine.hh"
#include "topology/torus.hh"
#include "workload/gups.hh"
#include "workload/stream.hh"

namespace
{

using namespace gs;
using HostClock = std::chrono::steady_clock;

double
secondsBetween(HostClock::time_point a, HostClock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Process CPU seconds, summed over every thread. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Pin the calling thread (and the threads it spawns later) to
 * @p width consecutive CPUs of @p cpus starting at index @p first.
 */
void
pinTo(const std::vector<int> &cpus, std::size_t first, int width)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int k = 0; k < width; ++k)
        CPU_SET(cpus[(first + std::size_t(k)) % cpus.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * In-memory span recorder. A span covers one call from the driver
 * into a simulator layer; its parent is the span open when it began.
 * Disabled tracers record nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0; ///< seconds since the tracer's epoch
        double end = 0;
        int parent = -1;
    };

    class Scope
    {
      public:
        Scope(Tracer *t, int idx) : t_(t), idx_(idx) {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope()
        {
            if (t_)
                t_->close(idx_);
        }

      private:
        Tracer *t_;
        int idx_;
    };

    Tracer() : epoch_(HostClock::now()) {}

    void enable(bool on) { on_ = on; }

    Scope
    open(const char *name)
    {
        if (!on_)
            return Scope(nullptr, -1);
        spans_.push_back({name, now(), 0.0, cur_});
        cur_ = static_cast<int>(spans_.size()) - 1;
        return Scope(this, cur_);
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double now() const { return secondsBetween(epoch_, HostClock::now()); }

    void
    close(int idx)
    {
        auto &s = spans_[std::size_t(idx)];
        s.end = now();
        cur_ = s.parent;
    }

    HostClock::time_point epoch_;
    std::vector<Span> spans_;
    int cur_ = -1;
    bool on_ = false;
};

using Values = std::vector<std::pair<std::string, double>>;
using Sources = std::vector<std::unique_ptr<cpu::TrafficSource>>;

/** One repetition of a workload. */
struct Rep
{
    bool traced = false;
    double setupS = 0; ///< build + faults + generator construction
    double wallS = 0;  ///< host seconds of the simulated phase
    double cpuS = 0;   ///< host CPU seconds of the simulated phase
    double simNs = 0;  ///< simulated ns the phase advanced
    double headline = 0;
    Values counts;  ///< deterministic: must repeat bit for bit
    Values gauges;  ///< wall-clock shaped registry gauges
    Values probes;  ///< traced repetitions only
    bool nodeCounts = true; ///< the registry had per-node subtrees
    std::vector<std::string> failures;
};

void
fail(Rep &r, std::string why)
{
    r.failures.push_back(std::move(why));
}

// ---------------------------------------------------------------
// Registry reads

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    std::string suf(suffix);
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

double
valueOr0(const telem::Registry &reg, const char *path)
{
    return reg.has(path) ? reg.value(path) : 0.0;
}

/** Counts that only per-node registry subtrees carry. */
const std::vector<std::string> kNodeDerived = {
    "net.vc_stalls",      "net.inj_stalls",         "net.link_busy_max",
    "coher.misses",       "coher.msgs",             "coher.forwards",
    "coher.maf_merges",   "coher.l2_hit_ratio",     "coher.miss_latency_ns",
    "mem.reads",          "mem.writes",             "mem.row_hit_ratio",
    "mem.busy_frac",
};

/**
 * Fold the registry into the benchmark's per-layer counts. Per-node
 * subtrees (`node.<n>.*`) are summed over whatever nodes registered;
 * @return whether any did.
 */
bool
readRegistry(const telem::Registry &reg, Tick elapsed, Rep &r)
{
    struct NodeAgg
    {
        double misses = 0, missLatNs = 0;
    };
    std::map<long, NodeAgg> perNode;
    double msgs = 0, forwards = 0, merges = 0, l2Hits = 0, accesses = 0;
    double reads = 0, writes = 0, rowHits = 0, rowOther = 0;
    double busyTicks = 0, channels = 0;
    double vcStalls = 0, injStalls = 0, linkBusyMax = 0;
    bool anyNode = false;

    for (const auto &[path, entry] : reg.entries()) {
        (void)entry;
        if (!startsWith(path, "node."))
            continue;
        anyNode = true;
        char *rest = nullptr;
        long node = std::strtol(path.c_str() + 5, &rest, 10);
        std::string leaf = *rest == '.' ? std::string(rest + 1) : "";
        double v = reg.value(path);
        if (leaf == "misses")
            perNode[node].misses = v;
        else if (leaf == "miss_latency_ns")
            perNode[node].missLatNs = v;
        else if (leaf == "forwards_served")
            forwards += v;
        else if (leaf == "maf_merges")
            merges += v;
        else if (leaf == "l2_hits")
            l2Hits += v;
        else if (leaf == "accesses")
            accesses += v;
        else if (startsWith(leaf, "proto.sent."))
            msgs += v;
        else if (startsWith(leaf, "mem.")) {
            if (endsWith(leaf, ".reads"))
                reads += v;
            else if (endsWith(leaf, ".writes"))
                writes += v;
            else if (endsWith(leaf, ".row_hits"))
                rowHits += v;
            else if (endsWith(leaf, ".row_empties") ||
                     endsWith(leaf, ".row_conflicts"))
                rowOther += v;
            else if (endsWith(leaf, ".busy_ticks"))
                busyTicks += v;
            else if (endsWith(leaf, ".channels"))
                channels += v;
        } else if (startsWith(leaf, "router.port.")) {
            if (endsWith(leaf, ".stalls"))
                vcStalls += v;
            else if (endsWith(leaf, ".busy_frac"))
                linkBusyMax = std::max(linkBusyMax, v);
        } else if (startsWith(leaf, "router.inj.") &&
                   endsWith(leaf, ".stalls")) {
            injStalls += v;
        }
    }
    double misses = 0, latWeighted = 0;
    for (const auto &[node, agg] : perNode) {
        misses += agg.misses;
        latWeighted += agg.misses * agg.missLatNs;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    r.counts = {
        {"sim.events", valueOr0(reg, "eq.fired")},
        {"sim.peak_pending", valueOr0(reg, "eq.peak_pending")},
        {"par.epochs", valueOr0(reg, "par.epochs")},
        {"par.mailbox.arrivals", valueOr0(reg, "par.mailbox.arrivals")},
        {"par.lookahead_widened",
         valueOr0(reg, "par.lookahead_widened")},
        {"net.injected_packets", valueOr0(reg, "net.injected_packets")},
        {"net.delivered_flits", valueOr0(reg, "net.delivered_flits")},
        {"net.hops_per_packet", valueOr0(reg, "net.hops_per_packet")},
        {"net.vc_stalls", vcStalls},
        {"net.inj_stalls", injStalls},
        {"net.packet_pool.allocated",
         valueOr0(reg, "net.packet_pool.allocated")},
        {"net.latency_ns", valueOr0(reg, "net.latency_ns")},
        {"net.link_busy_max", linkBusyMax},
        {"fault.drops.total", valueOr0(reg, "fault.drops.total")},
        {"fault.link_failures", valueOr0(reg, "fault.link_failures")},
        {"coher.misses", misses},
        {"coher.msgs", msgs},
        {"coher.forwards", forwards},
        {"coher.maf_merges", merges},
        {"coher.l2_hit_ratio", ratio(l2Hits, accesses)},
        {"coher.miss_latency_ns", ratio(latWeighted, misses)},
        {"mem.reads", reads},
        {"mem.writes", writes},
        {"mem.row_hit_ratio", ratio(rowHits, rowHits + rowOther)},
        {"mem.busy_frac",
         ratio(busyTicks, channels * static_cast<double>(elapsed))},
    };
    r.gauges = {
        {"par.steal_count", valueOr0(reg, "par.steal_count")},
        {"par.barrier_wait_frac", valueOr0(reg, "par.barrier_wait_frac")},
        {"mem.bytes_per_node", valueOr0(reg, "mem.bytes_per_node")},
    };
    return anyNode;
}

// ---------------------------------------------------------------
// Layer probes (traced repetitions only)

template <typename F>
double
nsPerOp(std::uint64_t ops, F &&body)
{
    auto t0 = HostClock::now();
    body();
    return secondsBetween(t0, HostClock::now()) * 1e9 /
           static_cast<double>(ops);
}

/**
 * EventQueue::schedule + step at a steady @p depth pending events
 * with seeded delays spread over the calendar's near window.
 */
double
eqProbeNs(std::size_t depth, std::uint64_t seed, double &checksum)
{
    constexpr std::uint64_t ops = 1000000;
    EventQueue q;
    Rng rng(seed);
    std::uint64_t fired = 0;
    auto delay = [&rng] { return Tick(1 + rng.below(1 << 20)); };
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
        q.schedule(delay(), [&fired] { fired += 1; });
    double ns = nsPerOp(ops, [&] {
        for (std::uint64_t i = 0; i < ops; ++i) {
            q.step();
            q.schedule(delay(), [&fired] { fired += 1; });
        }
    });
    checksum += static_cast<double>(fired);
    return ns;
}

/** DegradedTopology::adaptivePorts over every (node, dst) pair. */
double
routeProbeNs(const fault::DegradedTopology &fabric, double &checksum)
{
    const auto n = static_cast<NodeId>(fabric.numNodes());
    // At least ~4M calls so small fabrics are timed over a
    // measurable interval.
    const std::uint64_t pairs = std::uint64_t(n) * std::uint64_t(n);
    const std::uint64_t sweeps = std::max<std::uint64_t>(1, 4000000 / pairs);
    std::uint64_t ports = 0;
    double ns = nsPerOp(sweeps * pairs, [&] {
        for (std::uint64_t s = 0; s < sweeps; ++s)
            for (NodeId at = 0; at < n; ++at)
                for (NodeId dst = 0; dst < n; ++dst)
                    ports += fabric.adaptivePorts(at, dst, 0).size();
    });
    checksum += static_cast<double>(ports);
    return ns;
}

/** One local L2 miss through CoherentNode::memAccess, 2-node fabric. */
double
missProbeNs(double &checksum)
{
    constexpr std::uint64_t misses = 32768;
    SimContext ctx;
    topo::Torus2D topo(2, 1);
    mem::NodeOwnedMap map;
    net::Network net(ctx, topo, net::NetworkParams::gs1280());
    coher::CoherentNode n0(ctx, net, 0, map, {});
    coher::CoherentNode n1(ctx, net, 1, map, {});
    std::uint64_t done = 0;
    double ns = nsPerOp(misses, [&] {
        for (std::uint64_t i = 0; i < misses; ++i) {
            n0.memAccess(mem::regionBase(0) + i * mem::lineBytes, false,
                         [&done] { done += 1; });
            while (done <= i && ctx.queue().step()) {
            }
        }
    });
    if (done != misses || n0.stats().misses != misses)
        gs_fatal("miss probe: ", done, " of ", misses, " completed");
    checksum += static_cast<double>(done);
    return ns;
}

/**
 * Drain TrafficSource::next() of freshly built generator sets, as
 * many sets as make up at least ~1M ops.
 */
double
genProbeNs(const std::function<Sources()> &make, std::uint64_t opsPerSet,
           double &checksum)
{
    const std::uint64_t sets =
        std::max<std::uint64_t>(1, (1000000 + opsPerSet - 1) / opsPerSet);
    Sources gens;
    for (std::uint64_t i = 0; i < sets; ++i)
        for (auto &g : make())
            gens.push_back(std::move(g));
    std::uint64_t ops = 0;
    mem::Addr sum = 0;
    double ns = nsPerOp(sets * opsPerSet, [&] {
        for (auto &g : gens)
            while (auto op = g->next()) {
                ops += 1;
                sum += op->addr;
            }
    });
    if (ops != sets * opsPerSet)
        gs_fatal("generator probe: ", ops, " ops, expected ",
                 sets * opsPerSet);
    checksum += static_cast<double>(sum % 1000003);
    return ns;
}

// ---------------------------------------------------------------
// Workloads

/** A workload that runs on a whole sys::Machine. */
struct MachineWorkload
{
    std::function<std::unique_ptr<sys::Machine>(std::uint64_t seed)> build;
    std::function<Sources(sys::Machine &, std::uint64_t seed)> sources;
    std::uint64_t expectedOps; ///< memory ops the generators emit
    Tick limit;                ///< Machine::run limit
    double headlineScale;      ///< headline = ops * scale / sim ns
};

void
checkPaper(Rep &r, double ref, double tol)
{
    if (ref > 0 && std::fabs(r.headline - ref) > tol * ref) {
        std::ostringstream os;
        os << "headline " << r.headline << " outside " << tol * 100
           << "% of the paper's " << ref;
        fail(r, os.str());
    }
}

Rep
machineRep(const MachineWorkload &w, std::uint64_t seed, Tracer &tr,
           bool probes)
{
    Rep r;
    auto t0 = HostClock::now();
    std::unique_ptr<sys::Machine> m;
    {
        auto s = tr.open("system.build");
        m = w.build(seed);
    }
    Sources gens;
    {
        auto s = tr.open("workload.construct");
        gens = w.sources(*m, seed);
    }
    std::vector<cpu::TrafficSource *> raw;
    for (auto &g : gens)
        raw.push_back(g.get());
    r.setupS = secondsBetween(t0, HostClock::now());

    bool done = false;
    Tick start = m->ctx().now();
    {
        auto s = tr.open("system.run");
        double c0 = cpuSeconds();
        auto w0 = HostClock::now();
        done = m->run(raw, w.limit);
        r.wallS = secondsBetween(w0, HostClock::now());
        r.cpuS = cpuSeconds() - c0;
    }
    Tick elapsed = m->ctx().now() - start;
    r.simNs = ticksToNs(elapsed);
    {
        auto s = tr.open("telem.read");
        r.nodeCounts = readRegistry(m->telemetry(), elapsed, r);
    }

    std::uint64_t issued = 0, completed = 0;
    for (int c = 0; c < m->cpuCount(); ++c) {
        issued += m->core(c).stats().opsIssued;
        completed += m->core(c).stats().opsDone;
    }
    r.counts.push_back({"workload.ops", static_cast<double>(issued)});
    r.counts.push_back({"sim.ns", r.simNs});
    r.headline =
        static_cast<double>(completed) * w.headlineScale / r.simNs;
    r.counts.push_back({"headline", r.headline});

    if (!done)
        fail(r, "Machine::run hit its limit");
    if (!m->drained())
        fail(r, "machine not drained");
    if (completed != w.expectedOps || issued != w.expectedOps)
        fail(r, "ops completed " + std::to_string(completed) +
                    ", issued " + std::to_string(issued) +
                    ", generated " + std::to_string(w.expectedOps));
    if (valueOr0(m->telemetry(), "fault.drops.total") > 0)
        fail(r, "packets dropped on a connected fabric");

    if (probes) {
        double sum = 0;
        auto peak = static_cast<std::size_t>(
            valueOr0(m->telemetry(), "eq.peak_pending"));
        {
            auto s = tr.open("sim.eq_probe");
            r.probes.push_back(
                {"sim.eq_probe_ns", eqProbeNs(peak, seed, sum)});
        }
        {
            auto s = tr.open("topology.route_probe");
            r.probes.push_back(
                {"topology.route_probe_ns", routeProbeNs(m->fabric(), sum)});
        }
        {
            auto s = tr.open("coher.miss_probe");
            r.probes.push_back({"coher.miss_probe_ns", missProbeNs(sum)});
        }
        {
            auto s = tr.open("workload.gen_probe");
            r.probes.push_back(
                {"workload.gen_probe_ns",
                 genProbeNs([&] { return w.sources(*m, seed); },
                            w.expectedOps, sum)});
        }
        r.probes.push_back({"probe.checksum", sum});
    }
    {
        auto s = tr.open("system.teardown");
        gens.clear();
        m.reset();
    }
    return r;
}

// stream16: Fig 6 STREAM Triad, 16P, every CPU on its own arrays.
constexpr int kStreamCpus = 16;
constexpr std::uint64_t kStreamArrayBytes = 1ULL << 20;

MachineWorkload
stream16()
{
    MachineWorkload w;
    w.build = [](std::uint64_t seed) {
        sys::Gs1280Options opt;
        opt.seed = Rng::deriveSeed(seed, 0);
        return sys::Machine::buildGS1280(kStreamCpus, opt);
    };
    w.sources = [](sys::Machine &m, std::uint64_t seed) {
        // Seeded, line-aligned array placement inside each CPU's
        // local region; sizes stay fixed so the work does too.
        Rng rng(Rng::deriveSeed(seed, 1));
        Sources s;
        for (int c = 0; c < kStreamCpus; ++c)
            s.push_back(std::make_unique<wl::StreamTriad>(
                m.cpuAddr(c, rng.below(4096) * mem::lineBytes),
                kStreamArrayBytes));
        return s;
    };
    // Triad: two loads and one store per line.
    w.expectedOps = kStreamCpus * (kStreamArrayBytes / mem::lineBytes) * 3;
    w.limit = 2000 * tickMs;
    w.headlineScale = 64.0; // ops * 64 B / ns = GB/s (192 B per line)
    return w;
}

Sources
gupsSources(int cpus, std::uint64_t bytesPerNode, std::uint64_t updates,
            std::uint64_t seed)
{
    Sources s;
    for (int c = 0; c < cpus; ++c)
        s.push_back(std::make_unique<wl::Gups>(
            cpus, bytesPerNode, updates,
            Rng::deriveSeed(seed, 100 + static_cast<std::uint64_t>(c))));
    return s;
}

// gups32: Fig 23/24 bend point, 8x4 torus, mlp 16.
constexpr int kGups32Cpus = 32;
constexpr std::uint64_t kGups32Updates = 2000;

MachineWorkload
gups32()
{
    MachineWorkload w;
    w.build = [](std::uint64_t seed) {
        sys::Gs1280Options opt;
        opt.mlp = 16;
        opt.seed = Rng::deriveSeed(seed, 0);
        return sys::Machine::buildGS1280(kGups32Cpus, opt);
    };
    w.sources = [](sys::Machine &, std::uint64_t seed) {
        return gupsSources(kGups32Cpus, 256ULL << 20, kGups32Updates, seed);
    };
    w.expectedOps = kGups32Cpus * kGups32Updates;
    w.limit = 30000 * tickMs;
    w.headlineScale = 1e3; // ops / ns * 1e3 = Mupdates/s
    return w;
}

// gups512_3d_t2: 8x8x8 3-D torus, parallel engine, 2 threads, tile
// shape pinned so the result is the same at any thread count.
constexpr std::uint64_t kGups512Updates = 200;

MachineWorkload
gups512()
{
    MachineWorkload w;
    w.build = [](std::uint64_t seed) {
        sys::Gs1280Options opt;
        opt.seed = Rng::deriveSeed(seed, 0);
        opt.threads = 2;
        opt.tileRows = 1;
        opt.tileCols = 2;
        opt.tileSlabs = 1;
        return sys::Machine::buildGS1280_3D(8, 8, 8, opt);
    };
    w.sources = [](sys::Machine &m, std::uint64_t seed) {
        return gupsSources(m.cpuCount(), 1ULL << 20, kGups512Updates, seed);
    };
    w.expectedOps = 512 * kGups512Updates;
    w.limit = 30000 * tickMs;
    w.headlineScale = 1e3;
    return w;
}

// fault_synth: 8x8 torus, row-0 East links 0-3 cut, uniform random
// traffic past saturation; network, fault and topology layers only.
constexpr int kFaultCuts = 4;
constexpr int kFaultMeasureCycles = 6000;

Rep
faultSynthRep(std::uint64_t seed, Tracer &tr, bool probes)
{
    Rep r;
    auto t0 = HostClock::now();
    SimContext ctx;
    std::optional<topo::Torus2D> base;
    std::optional<fault::DegradedTopology> fabric;
    std::optional<net::Network> network;
    std::optional<fault::FaultInjector> inj;
    telem::Registry reg;
    {
        auto s = tr.open("system.build");
        base.emplace(8, 8);
        fabric.emplace(*base);
        network.emplace(ctx, *fabric, net::NetworkParams::gs1280());
        inj.emplace(ctx, *network, *fabric);
        network->registerTelemetry(reg, "net");
        inj->registerTelemetry(reg, "fault");
        for (NodeId n = 0; n < fabric->numNodes(); ++n)
            network->router(n).registerTelemetry(
                reg, telem::path(telem::path("node", n), "router"),
                [](int p) { return "p" + std::to_string(p); });
        EventQueue *q = &ctx.queue();
        reg.addGauge("eq.fired",
                     [q] { return static_cast<double>(q->firedCount()); });
        reg.addGauge("eq.peak_pending",
                     [q] { return static_cast<double>(q->peakPending()); });
    }
    {
        auto s = tr.open("fault.apply");
        for (int x = 0; x < kFaultCuts; ++x)
            inj->failLink(static_cast<NodeId>(x), topo::portEast);
    }
    net::SyntheticConfig cfg;
    cfg.pattern = net::TrafficPattern::UniformRandom;
    cfg.injectionRate = 0.08;
    cfg.measureCycles = kFaultMeasureCycles;
    cfg.seed = Rng::deriveSeed(seed, 0);
    r.setupS = secondsBetween(t0, HostClock::now());

    net::SyntheticResult res;
    {
        auto s = tr.open("net.run_synthetic");
        double c0 = cpuSeconds();
        auto w0 = HostClock::now();
        res = net::runSynthetic(ctx, *network, cfg);
        r.wallS = secondsBetween(w0, HostClock::now());
        r.cpuS = cpuSeconds() - c0;
    }
    r.simNs = ticksToNs(ctx.now());
    {
        auto s = tr.open("telem.read");
        readRegistry(reg, ctx.now(), r);
    }
    r.headline = res.acceptedFlitsPerNodeCycle;
    r.counts.push_back({"workload.ops", 0.0});
    r.counts.push_back({"sim.ns", r.simNs});
    r.counts.push_back({"headline", r.headline});
    r.counts.push_back(
        {"net.measured_packets", static_cast<double>(res.measuredPackets)});

    if (!res.drained)
        fail(r, "runSynthetic did not deliver every measured packet");
    if (network->inFlight() != 0)
        fail(r, "network not drained");
    if (!fabric->connected())
        fail(r, "fabric disconnected by the cuts");
    else if (valueOr0(reg, "fault.drops.total") > 0)
        fail(r, "packets dropped on a connected fabric");
    if (res.measuredPackets == 0)
        fail(r, "no packets measured");

    if (probes) {
        double sum = 0;
        {
            auto s = tr.open("sim.eq_probe");
            r.probes.push_back(
                {"sim.eq_probe_ns",
                 eqProbeNs(ctx.queue().peakPending(), seed, sum)});
        }
        {
            auto s = tr.open("topology.route_probe");
            r.probes.push_back(
                {"topology.route_probe_ns", routeProbeNs(*fabric, sum)});
        }
        {
            auto s = tr.open("coher.miss_probe");
            r.probes.push_back({"coher.miss_probe_ns", missProbeNs(sum)});
        }
        // No TrafficSource: runSynthetic generates its own packets.
        r.probes.push_back({"workload.gen_probe_ns", 0.0});
        r.probes.push_back({"probe.checksum", sum});
    }
    {
        auto s = tr.open("system.teardown");
        inj.reset();
        network.reset();
        fabric.reset();
        base.reset();
    }
    return r;
}

struct Workload
{
    const char *name;
    const char *headlineUnit;
    double paperRef;  ///< 0 = no paper reference (unvalidated)
    double paperTol;  ///< allowed relative error against paperRef
    std::string config; ///< every input-shaping constant, for the hash
    int threads;        ///< host threads the simulated phase uses
    std::function<Rep(std::uint64_t, Tracer &, bool)> rep;
};

std::vector<Workload>
workloads()
{
    auto machine = [](MachineWorkload w) {
        return [w](std::uint64_t seed, Tracer &tr, bool probes) {
            return machineRep(w, seed, tr, probes);
        };
    };
    return {
        // Fig 6: ~4.2 GB/s per CPU, linear in CPU count.
        {"stream16", "GB/s", 4.2 * kStreamCpus, 0.15,
         "buildGS1280(16) triad array_bytes=" +
             std::to_string(kStreamArrayBytes) + " placement=seeded",
         1,
         machine(stream16())},
        // Fig 23: ~1000 Mupdates/s around the 32P bend.
        {"gups32", "Mupdates/s", 1000.0, 0.15,
         "buildGS1280(32) mlp=16 table=256MiB/node updates=" +
             std::to_string(kGups32Updates),
         1,
         machine(gups32())},
        {"fault_synth", "flits/node/cycle", 0.0, 0.0,
         "Torus2D(8,8) cut=row0.E[0," + std::to_string(kFaultCuts) +
             ") uniform rate=0.08 warmup=2000 measure=" +
             std::to_string(kFaultMeasureCycles),
         1,
         faultSynthRep},
        {"gups512_3d_t2", "Mupdates/s", 0.0, 0.0,
         "buildGS1280_3D(8,8,8) threads=2 tile=1x2x1 table=1MiB/node "
         "updates=" + std::to_string(kGups512Updates),
         2,
         machine(gups512())},
    };
}

// ---------------------------------------------------------------
// Output

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
object(const Values &vs)
{
    std::string out = "{";
    for (std::size_t i = 0; i < vs.size(); ++i)
        out += (i ? ", " : "") + quoted(vs[i].first) + ": " +
               num(vs[i].second);
    return out + "}";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "gs1280bench: " << why
              << "\nusage: gs1280bench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 0, seconds = 0, trace = 0;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; i += 2) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const char *val = argv[i + 1];
        if (flag == "--workload")
            name = val;
        else if (flag == "--seed")
            seed = parseUint(flag, val), haveSeed = true;
        else if (flag == "--seconds")
            seconds = parseUint(flag, val), haveSeconds = true;
        else if (flag == "--trace")
            trace = parseUint(flag, val);
        else
            usage("unknown flag " + flag);
    }
    if (!haveSeed || !haveSeconds || seconds == 0 || seconds > 120 ||
        trace > 1)
        usage("--seed, --seconds in [1, 120] and --trace 0|1 are required");

    const Workload *wl = nullptr;
    auto all = workloads();
    for (const auto &w : all)
        if (name == w.name)
            wl = &w;
    if (!wl)
        usage("unknown workload '" + name + "'");

    // Repetitions run until the budget is spent, with at least three
    // untraced ones (and, traced, three of each) so that the
    // determinism guard always has something to compare. A run never
    // starts a repetition it could not finish well inside 150 s.
    const int minEach = 3;
    // On a shared host one CPU can run the same repetition up to 1.5x
    // slower than the others for seconds to minutes, while another
    // tenant loads it. After one repetition on each group of
    // wl->threads CPUs, every repetition runs on the group whose last
    // repetition was fastest, so a run measures the program rather
    // than which CPUs happened to be loaded.
    std::vector<int> cpus;
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        sched_getaffinity(0, sizeof allowed, &allowed);
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    }
    const std::size_t groups =
        std::max<std::size_t>(1, cpus.size() / std::size_t(wl->threads));
    std::vector<double> lastWall(groups, 0.0); // 0: not tried yet
    const double budget = static_cast<double>(seconds);
    Tracer tracer;
    std::vector<Rep> reps;
    std::vector<std::pair<int, int>> repSpans; // [first, end) span idx
    auto begin = HostClock::now();
    int untraced = 0, traced = 0;
    double longest = 0;
    for (int i = 0;; ++i) {
        double spent = secondsBetween(begin, HostClock::now());
        bool need = untraced < minEach || (trace && traced < minEach);
        if (!need && spent >= budget)
            break;
        if (spent + 2 * longest > 150)
            break;
        bool tracedRep = trace && i % 2 == 1;
        std::size_t group = 0; // the first untried group, else the fastest
        for (std::size_t g = 1; g < groups; ++g)
            if (lastWall[group] > 0 &&
                (lastWall[g] == 0 || lastWall[g] < lastWall[group]))
                group = g;
        if (groups >= 2)
            pinTo(cpus, group * std::size_t(wl->threads), wl->threads);
        tracer.enable(tracedRep);
        int firstSpan = static_cast<int>(tracer.spans().size());
        auto r0 = HostClock::now();
        Rep r;
        {
            auto s = tracer.open("bench.rep");
            r = wl->rep(seed, tracer, tracedRep);
        }
        longest = std::max(longest, secondsBetween(r0, HostClock::now()));
        r.traced = tracedRep;
        checkPaper(r, wl->paperRef, wl->paperTol);
        repSpans.push_back(
            {firstSpan, static_cast<int>(tracer.spans().size())});
        lastWall[group] = r.wallS;
        reps.push_back(std::move(r));
        (tracedRep ? traced : untraced) += 1;
    }
    double rss = peakRssMb();

    std::ostringstream out;
    out << "{\"workload\": " << quoted(wl->name) << ", \"seed\": " << seed
        << ", \"config\": " << quoted(wl->config)
        << ", \"headline_unit\": " << quoted(wl->headlineUnit)
        << ", \"paper_ref\": " << num(wl->paperRef)
        << ", \"paper_tol\": " << num(wl->paperTol)
        << ", \"peak_rss_mb\": " << num(rss) << ", \"lacking\": [";
    if (!reps.front().nodeCounts)
        for (std::size_t i = 0; i < kNodeDerived.size(); ++i)
            out << (i ? ", " : "") << quoted(kNodeDerived[i]);
    out << "], \"reps\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        out << (i ? ", " : "") << "{\"traced\": " << (r.traced ? 1 : 0)
            << ", \"setup_s\": " << num(r.setupS)
            << ", \"wall_s\": " << num(r.wallS)
            << ", \"cpu_s\": " << num(r.cpuS)
            << ", \"sim_ns\": " << num(r.simNs)
            << ", \"headline\": " << num(r.headline)
            << ", \"counts\": " << object(r.counts)
            << ", \"gauges\": " << object(r.gauges)
            << ", \"probes\": " << object(r.probes) << ", \"failures\": [";
        for (std::size_t f = 0; f < r.failures.size(); ++f)
            out << (f ? ", " : "") << quoted(r.failures[f]);
        out << "], \"spans\": [";
        const auto &spans = tracer.spans();
        for (int s = repSpans[i].first; s < repSpans[i].second; ++s) {
            const auto &sp = spans[std::size_t(s)];
            out << (s > repSpans[i].first ? ", " : "")
                << "{\"id\": " << s << ", \"name\": " << quoted(sp.name)
                << ", \"start\": " << num(sp.start)
                << ", \"end\": " << num(sp.end)
                << ", \"parent\": " << sp.parent << "}";
        }
        out << "]}";
    }
    out << "]}\n";
    std::cout << out.str() << std::flush;
    return 0;
}
