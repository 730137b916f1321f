/**
 * @file
 * Figure 24: GUPS on the 32P (8x4 torus) GS1280 — memory controller
 * and per-direction link utilization over time.
 *
 * Paper: East/West (horizontal) links run hotter than North/South
 * because the horizontal dimension is longer and carries more of
 * the uniform traffic; this is also why the GUPS curve bends at 32P.
 */

#include <iostream>
#include <memory>

#include "sim/args.hh"
#include "sim/table.hh"
#include "system/xmesh.hh"
#include "workload/gups.hh"

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              {{"updates", "updates per CPU (default 2000)"}});
    auto updates =
        static_cast<std::uint64_t>(args.getInt("updates", 2000, 1));

    printBanner(std::cout,
                "Figure 24: GUPS utilization over time, 32P GS1280 "
                "(8x4 torus)");

    sys::Gs1280Options opt;
    opt.mlp = 16;
    auto m = sys::Machine::buildGS1280(32, opt);
    sys::Xmesh mon(*m, 30 * tickUs);
    mon.start();

    std::vector<std::unique_ptr<wl::Gups>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < 32; ++c) {
        gens.push_back(std::make_unique<wl::Gups>(
            32, 256ULL << 20, updates, 8000 + static_cast<unsigned>(c)));
        sources.push_back(gens.back().get());
    }
    bool ok = m->run(sources, 60000 * tickMs);
    mon.stop();

    Table t({"timestamp us", "memory controller %",
             "avg North/South %", "avg East/West %"});
    double ewSum = 0, nsSum = 0;
    int n = 0;
    for (const auto &s : mon.samples()) {
        t.addRow({Table::num(ticksToNs(s.when) / 1000.0, 0),
                  Table::num(s.avgMemUtil * 100, 1),
                  Table::num(s.avgNorthSouth * 100, 1),
                  Table::num(s.avgEastWest * 100, 1)});
        ewSum += s.avgEastWest;
        nsSum += s.avgNorthSouth;
        n += 1;
    }
    t.print(std::cout);
    if (!ok)
        std::cout << "[run hit the time limit]\n";
    if (n > 0 && nsSum > 0) {
        std::cout << "\nEast/West : North/South utilization ratio: "
                  << Table::num(ewSum / nsSum, 2)
                  << "   (paper: E/W runs visibly hotter in the 8x4 "
                     "torus)\n";
    }
    return 0;
}
