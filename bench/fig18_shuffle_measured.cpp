/**
 * @file
 * Figure 18: measured improvement from shuffle on the 8-CPU (4x2)
 * machine — random-traffic load curves for the standard torus, the
 * 1-hop shuffle and the 2-hop shuffle.
 *
 * Paper: 1-hop shuffle gains 5-25% depending on load; 2-hop adds a
 * further 2-5%.
 */

#include <iostream>
#include <memory>

#include "common.hh"
#include "sim/args.hh"
#include "topology/shuffle.hh"
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
run8p(bool shuffle, topo::ShufflePolicy policy, int outstanding,
      std::uint64_t reads, std::uint64_t seed)
{
    sys::Gs1280Options opt;
    opt.mlp = outstanding;
    opt.shuffle = shuffle;
    opt.shufflePolicy = policy;
    auto m = sys::Machine::buildGS1280(8, opt);

    std::vector<std::unique_ptr<wl::RandomRemoteReads>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < 8; ++c) {
        gens.push_back(std::make_unique<wl::RandomRemoteReads>(
            c, 8, 512ULL << 20, reads,
            Rng::deriveSeed(seed, static_cast<std::uint64_t>(c))));
        sources.push_back(gens.back().get());
    }
    Tick start = m->ctx().now();
    if (!m->run(sources, 20000 * tickMs))
        return Point{0, 0};
    double ns = ticksToNs(m->ctx().now() - start);
    double lat = 0;
    for (int c = 0; c < 8; ++c)
        lat += m->node(c).stats().missLatencyNs.mean();
    return Point{8.0 * static_cast<double>(reads) * 64.0 / ns * 1000.0,
                 lat / 8.0};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withSweepArgs(
                  {{"reads", "reads per CPU per point (default 800)"}}));
    auto reads = static_cast<std::uint64_t>(args.getInt("reads", 800, 1));
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 18: shuffle improvement on 8P (4x2), "
                "bandwidth (MB/s) and latency (ns) by load");

    // Three wiring configurations measured at each load level; one
    // declared point per (load, wiring) pair.
    const std::vector<int> outs = {1, 2, 4, 8, 16, 24, 30};
    struct Task
    {
        int outstanding;
        bool shuffle;
        topo::ShufflePolicy policy;
    };
    std::vector<Task> tasks;
    for (int o : outs) {
        tasks.push_back({o, false, topo::ShufflePolicy::OneHop});
        tasks.push_back({o, true, topo::ShufflePolicy::OneHop});
        tasks.push_back({o, true, topo::ShufflePolicy::TwoHop});
    }

    auto points = runner.map(
        tasks, [&](const Task &tk, SweepPoint sp) -> Point {
            return run8p(tk.shuffle, tk.policy, tk.outstanding, reads,
                         sp.seed);
        });

    Table t({"outstanding", "torus bw", "torus lat", "shuffle bw",
             "shuffle lat", "shuffle2 bw", "shuffle2 lat",
             "1-hop gain %"});
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const Point &torus = points[3 * i];
        const Point &s1 = points[3 * i + 1];
        const Point &s2 = points[3 * i + 2];
        double gain = (torus.latencyNs / s1.latencyNs - 1.0) * 100.0;
        t.addRow({Table::num(outs[i]), Table::num(torus.bwMBs, 0),
                  Table::num(torus.latencyNs, 0),
                  Table::num(s1.bwMBs, 0), Table::num(s1.latencyNs, 0),
                  Table::num(s2.bwMBs, 0), Table::num(s2.latencyNs, 0),
                  Table::num(gain, 1)});
    }
    t.print(std::cout);

    std::cout << "\npaper: 1-hop shuffle 5-25% better with load; "
                 "2-hop a further 2-5%\n";
    return 0;
}
