/**
 * @file
 * Figure 13: remote memory latencies (ns) on a 16-CPU GS1280 —
 * measured dependent-load latency from node 0 to every node of the
 * 4x4 torus, printed in grid layout like the paper's figure.
 *
 * Paper values: local 83; 1-hop 139 (on-module) / 145 (backplane) /
 * 154 (cable); 2-hop 175-195; 4-hop 259.
 */

#include <cstdio>
#include <iostream>
#include <limits>

#include "common.hh"
#include "sim/args.hh"
#include "topology/torus.hh"

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withSweepArgs(
                  {{"cpus", "CPU count (default 16)"}}));
    int cpus = static_cast<int>(
        args.getInt("cpus", 16, 1, std::numeric_limits<int>::max()));
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 13: remote memory latency map, " +
                    std::to_string(cpus) + "P GS1280 (ns)");

    std::vector<int> targets(static_cast<std::size_t>(cpus));
    for (int to = 0; to < cpus; ++to)
        targets[static_cast<std::size_t>(to)] = to;

    // Each probe gets its own machine, so every point is cold and
    // independent of sweep order.
    auto lat = runner.map(
        targets, [&](int to, SweepPoint) -> double {
            auto m = sys::Machine::buildGS1280(cpus);
            return bench::dependentLoadNs(*m, 0, to, 16ULL << 20, 64,
                                          6000, /*offset=*/0);
        });

    auto shape = sys::torusShape(cpus);
    topo::Torus2D torus(shape.first, shape.second);
    for (int y = 0; y < torus.height(); ++y) {
        for (int x = 0; x < torus.width(); ++x) {
            NodeId n = torus.nodeAt(x, y);
            std::printf("%7.0f", lat[static_cast<std::size_t>(n)]);
        }
        std::printf("\n");
    }

    std::printf("\npaper (4x4):\n"
                "     83    145    186    154\n"
                "    139    175    221    182\n"
                "    181    221    259    222\n"
                "    154    191    235    195\n");
    return 0;
}
