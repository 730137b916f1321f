/**
 * @file
 * Figure 26: hot-spot improvement from striping — every CPU reads
 * CPU0's memory; the striped machine spreads the load over the
 * module pair (paper: up to 80% improvement).
 */

#include <iostream>
#include <limits>
#include <memory>

#include "common.hh"
#include "sim/args.hh"
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
hotSpot(bool striped, int outstanding, int cpus, std::uint64_t reads,
        std::uint64_t seed)
{
    sys::Gs1280Options opt;
    opt.striped = striped;
    opt.mlp = outstanding;
    auto m = sys::Machine::buildGS1280(cpus, opt);

    std::vector<std::unique_ptr<wl::HotSpotReads>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        gens.push_back(std::make_unique<wl::HotSpotReads>(
            0, 512ULL << 20, reads,
            Rng::deriveSeed(seed, static_cast<std::uint64_t>(c))));
        sources.push_back(gens.back().get());
    }
    Tick start = m->ctx().now();
    if (!m->run(sources, 30000 * tickMs))
        return Point{0, 0};
    double ns = ticksToNs(m->ctx().now() - start);
    double lat = 0;
    for (int c = 0; c < cpus; ++c)
        lat += m->node(c).stats().missLatencyNs.mean();
    return Point{static_cast<double>(cpus) *
                     static_cast<double>(reads) * 64.0 / ns * 1000.0,
                 lat / cpus};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withSweepArgs(
                  {{"cpus", "CPU count (default 16)"},
                   {"reads", "reads per CPU per point (default 700)"}}));
    int cpus = static_cast<int>(
        args.getInt("cpus", 16, 1, std::numeric_limits<int>::max()));
    auto reads = static_cast<std::uint64_t>(args.getInt("reads", 700, 1));
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 26: hot-spot latency (ns) vs bandwidth "
                "(MB/s), striped vs non-striped");

    // One declared point per (load level, striped?) measurement.
    const std::vector<int> outs = {1, 2, 4, 8, 16, 24, 30};
    struct Task
    {
        int outstanding;
        bool striped;
    };
    std::vector<Task> tasks;
    for (int o : outs) {
        tasks.push_back({o, false});
        tasks.push_back({o, true});
    }

    auto points = runner.map(
        tasks, [&](const Task &tk, SweepPoint sp) -> Point {
            return hotSpot(tk.striped, tk.outstanding, cpus, reads,
                           sp.seed);
        });

    Table t({"outstanding", "non-striped bw", "non-striped lat",
             "striped bw", "striped lat", "bw gain %"});
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const Point &plain = points[2 * i];
        const Point &striped = points[2 * i + 1];
        t.addRow({Table::num(outs[i]), Table::num(plain.bwMBs, 0),
                  Table::num(plain.latencyNs, 0),
                  Table::num(striped.bwMBs, 0),
                  Table::num(striped.latencyNs, 0),
                  Table::num((striped.bwMBs / plain.bwMBs - 1) * 100,
                             1)});
    }
    t.print(std::cout);

    std::cout << "\npaper: striping buys up to ~80% more hot-spot "
                 "bandwidth at lower latency\n";
    return 0;
}
