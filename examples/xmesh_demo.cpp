/**
 * @file
 * Example: the Xmesh monitor in action, the way the paper's authors
 * used it — watch a healthy workload, then recognize a hot spot.
 *
 * Runs GUPS (even traffic) and then a hot-spot pattern on a 16-CPU
 * GS1280, printing the per-node memory-controller heat map after
 * each (Figure 27's display, as ASCII).
 *
 * Usage: xmesh_demo [--cpus=16] [--ops=2000]
 */

#include <iostream>
#include <limits>
#include <memory>

#include "sim/args.hh"
#include "sim/table.hh"
#include "system/xmesh.hh"
#include "workload/gups.hh"
#include "workload/load_test.hh"

namespace
{

using namespace gs;

template <typename Gen, typename Make>
void
episode(sys::Machine &m, const char *title, Make make)
{
    sys::Xmesh mon(m, 20 * tickUs);
    mon.start();

    std::vector<std::unique_ptr<Gen>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < m.cpuCount(); ++c) {
        gens.push_back(make(c));
        sources.push_back(gens.back().get());
    }
    bool ok = m.run(sources, 30000 * tickMs);
    mon.stop();

    printBanner(std::cout, title);
    if (!mon.samples().empty()) {
        const auto &mid = mon.samples()[mon.samples().size() / 2];
        std::cout << mon.heatmap(mid);
        std::cout << "average IP-link utilization: "
                  << Table::num(mid.avgLinkUtil * 100, 1) << "%\n";
    }
    if (!ok)
        std::cout << "[run hit the time limit]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              {{"cpus", "CPU count (default 16)"},
               {"ops", "ops per CPU (default 2000)"}});
    int cpus = static_cast<int>(
        args.getInt("cpus", 16, 1, std::numeric_limits<int>::max()));
    auto ops = static_cast<std::uint64_t>(args.getInt("ops", 4000));

    std::cout << "Xmesh demo: spot the difference between balanced "
                 "and hot-spot traffic.\n";

    {
        sys::Gs1280Options opt;
        opt.mlp = 8;
        auto m = sys::Machine::buildGS1280(cpus, opt);
        episode<wl::Gups>(*m, "GUPS: every controller evenly busy",
                          [&](int c) {
            return std::make_unique<wl::Gups>(
                cpus, 256ULL << 20, ops,
                100 + static_cast<unsigned>(c));
        });
    }
    {
        sys::Gs1280Options opt;
        opt.mlp = 8;
        auto m = sys::Machine::buildGS1280(cpus, opt);
        episode<wl::HotSpotReads>(
            *m, "Hot spot: one controller glows (Figure 27)",
            [&](int c) {
            return std::make_unique<wl::HotSpotReads>(
                0, 512ULL << 20, ops,
                200 + static_cast<unsigned>(c));
        });
    }

    std::cout << "\nOnce a hot spot is recognized, Section 6's memory "
                 "striping spreads it over the module pair "
                 "(bench/fig26_hotspot_striping).\n";
    return 0;
}
