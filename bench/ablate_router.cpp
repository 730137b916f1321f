/**
 * @file
 * Router-backend ablation: the EV7 buffered adaptive-VC router
 * against the bufferless deflection (hot-potato) alternative, on the
 * paper's two most network-bound experiments.
 *
 *  1. The Figure 15 load test (random remote reads, outstanding
 *     count swept): where the buffered design's curve stays flat and
 *     where deflection's extra hops start costing latency and
 *     delivered bandwidth.
 *  2. The Figure 23/24 GUPS congestion point: all-to-all single-line
 *     updates at maximum overlap, the traffic that saturates the
 *     torus — with the deflection accounting (misroutes per packet,
 *     worst per-packet count, retreats) alongside the rates.
 *
 * Not a paper figure: the GS1280 shipped the buffered router. This
 * is the design-space answer to "how much of Figure 15/23 is the VC
 * buffering actually buying?" — see docs/ROUTER.md.
 */

#include <iostream>
#include <memory>

#include "common.hh"
#include "sim/args.hh"
#include "workload/gups.hh"
#include "workload/load_test.hh"

namespace
{

using namespace gs;

struct Point
{
    double bwMBs;
    double latencyNs;
};

Point
loadPoint(net::RouterKind kind, int cpus, int outstanding,
          std::uint64_t reads, std::uint64_t seed)
{
    sys::Gs1280Options opt;
    opt.mlp = outstanding;
    opt.routerKind = kind;
    auto m = sys::Machine::buildGS1280(cpus, opt);

    std::vector<std::unique_ptr<wl::RandomRemoteReads>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        gens.push_back(std::make_unique<wl::RandomRemoteReads>(
            c, cpus, 512ULL << 20, reads,
            Rng::deriveSeed(seed, static_cast<std::uint64_t>(c))));
        sources.push_back(gens.back().get());
    }

    Tick start = m->ctx().now();
    bool ok = m->run(sources, 20000 * tickMs);
    double ns = ticksToNs(m->ctx().now() - start);
    if (!ok)
        return Point{0, 0};

    double bytes = static_cast<double>(cpus) *
                   static_cast<double>(reads) * 64.0;
    double lat = 0;
    for (int c = 0; c < cpus; ++c)
        lat += m->node(c).stats().missLatencyNs.mean();
    return Point{bytes / ns * 1000.0, lat / cpus};
}

/** One GUPS run's rate plus the deflection accounting. */
struct GupsPoint
{
    double mups = 0;
    double deflectPerPkt = 0;
    double maxDeflect = 0;
    double retreats = 0;
};

GupsPoint
gupsPoint(net::RouterKind kind, int cpus, std::uint64_t updates,
          std::uint64_t seed)
{
    sys::Gs1280Options opt;
    opt.mlp = 16; // GUPS overlaps updates aggressively
    opt.routerKind = kind;
    auto m = sys::Machine::buildGS1280(cpus, opt);

    std::vector<std::unique_ptr<wl::Gups>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        gens.push_back(std::make_unique<wl::Gups>(
            cpus, 256ULL << 20, updates,
            Rng::deriveSeed(seed, static_cast<std::uint64_t>(c))));
        sources.push_back(gens.back().get());
    }
    Tick start = m->ctx().now();
    if (!m->run(sources, 30000 * tickMs))
        return GupsPoint{};
    double seconds = ticksToNs(m->ctx().now() - start) * 1e-9;

    GupsPoint p;
    p.mups = static_cast<double>(cpus) *
             static_cast<double>(updates) / seconds / 1e6;
    if (kind == net::RouterKind::Bufferless) {
        const telem::Registry &reg = m->telemetry();
        double delivered = reg.value("net.delivered_packets");
        p.deflectPerPkt = delivered > 0
                              ? reg.value("net.deflect.count") /
                                    delivered
                              : 0;
        p.maxDeflect = reg.value("net.deflect.max_per_packet");
        p.retreats = reg.value("net.deflect.retreats");
    }
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withSweepArgs(
                  {{"reads", "reads per CPU per load point (default "
                             "400)"},
                   {"updates", "GUPS updates per CPU (default 1000)"},
                   {"full", "include the 32P GUPS point (slow)"}}));
    auto reads = static_cast<std::uint64_t>(args.getInt("reads", 400, 1));
    auto updates =
        static_cast<std::uint64_t>(args.getInt("updates", 1000, 1));
    bool full = args.getBool("full", false);
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Router ablation 1: Figure 15 load test at 16P, "
                "buffered vs bufferless deflection");
    {
        const std::vector<int> outs = {1, 2, 4, 8, 12, 16, 24, 30};
        auto t = bench::sweepTable(
            runner,
            {"outstanding", "buffered MB/s", "buffered ns",
             "bufferless MB/s", "bufferless ns"},
            outs, [&](int o, SweepPoint sp) -> bench::Row {
                Point b = loadPoint(net::RouterKind::Buffered, 16, o,
                                    reads, sp.seed);
                Point d = loadPoint(net::RouterKind::Bufferless, 16,
                                    o, reads, sp.seed);
                return {Table::num(o), Table::num(b.bwMBs, 0),
                        Table::num(b.latencyNs, 0),
                        Table::num(d.bwMBs, 0),
                        Table::num(d.latencyNs, 0)};
            });
        t.print(std::cout);
        std::cout << "\nshape: the curves track at low load (an idle "
                     "deflection router IS a minimal router); past "
                     "saturation the bufferless fabric pays misroute "
                     "hops where the buffered one pays VC waits\n";
    }

    printBanner(std::cout,
                "Router ablation 2: GUPS congestion (Figures 23/24), "
                "buffered vs bufferless deflection");
    {
        std::vector<int> points = {8, 16};
        if (full)
            points.push_back(32);
        auto t = bench::sweepTable(
            runner,
            {"#CPUs", "buffered MUP/s", "bufferless MUP/s",
             "deflects/pkt", "max deflect", "retreats"},
            points, [&](int cpus, SweepPoint sp) -> bench::Row {
                GupsPoint b =
                    gupsPoint(net::RouterKind::Buffered, cpus,
                              updates, Rng::deriveSeed(sp.seed, 0));
                GupsPoint d =
                    gupsPoint(net::RouterKind::Bufferless, cpus,
                              updates, Rng::deriveSeed(sp.seed, 1));
                return {Table::num(cpus), Table::num(b.mups, 1),
                        Table::num(d.mups, 1),
                        Table::num(d.deflectPerPkt, 3),
                        Table::num(d.maxDeflect, 0),
                        Table::num(d.retreats, 0)};
            });
        t.print(std::cout);
        std::cout << "\nshape: GUPS is the worst case for deflection "
                     "— every misroute burns cross-section bandwidth "
                     "the torus is already short of\n";
    }
    return 0;
}
