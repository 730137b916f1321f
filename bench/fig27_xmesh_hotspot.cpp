/**
 * @file
 * Figure 27: the Xmesh display with a hot spot — all CPUs read from
 * CPU0; the monitor's per-node view shows the victim's memory
 * controllers far above everyone else's (the paper reads 53% on the
 * hot node).
 */

#include <iostream>
#include <limits>
#include <memory>

#include "sim/args.hh"
#include "sim/table.hh"
#include "system/xmesh.hh"
#include "workload/load_test.hh"

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              {{"cpus", "CPU count (default 16)"},
               {"reads", "reads per CPU (default 2500)"}});
    int cpus = static_cast<int>(
        args.getInt("cpus", 16, 1, std::numeric_limits<int>::max()));
    auto reads = static_cast<std::uint64_t>(args.getInt("reads", 2500, 1));

    printBanner(std::cout,
                "Figure 27: Xmesh with a hot spot (" +
                    std::to_string(cpus) + "P GS1280, everyone reads "
                    "CPU0)");

    sys::Gs1280Options opt;
    opt.mlp = 8;
    auto m = sys::Machine::buildGS1280(cpus, opt);
    sys::Xmesh mon(*m, 100 * tickUs);
    mon.start();

    std::vector<std::unique_ptr<wl::HotSpotReads>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        gens.push_back(std::make_unique<wl::HotSpotReads>(
            0, 512ULL << 20, reads, 900 + static_cast<unsigned>(c)));
        sources.push_back(gens.back().get());
    }
    bool ok = m->run(sources, 30000 * tickMs);
    mon.stop();

    if (!mon.samples().empty()) {
        // Show the display at mid-run, like a live Xmesh screen.
        const auto &mid = mon.samples()[mon.samples().size() / 2];
        std::cout << mon.heatmap(mid) << '\n';
        std::cout << "hot node Zbox utilization: "
                  << Table::num(mid.memUtil[0] * 100, 1)
                  << "%   (paper's display reads 53% on the corner "
                     "CPU)\n";
    }
    if (!ok)
        std::cout << "[run hit the time limit]\n";
    return 0;
}
