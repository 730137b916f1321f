/**
 * @file
 * Figure 20: Fluent memory-controller and IP-link utilization over
 * time on the GS1280, sampled Xmesh-style.
 *
 * Paper: both averages sit in low single digits (2-12%) — the
 * application is CPU-bound, which is why Figure 19 shows no GS1280
 * advantage.
 */

#include <iostream>
#include <limits>
#include <memory>

#include "sim/args.hh"
#include "sim/table.hh"
#include "system/xmesh.hh"
#include "workload/fluent.hh"

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv, {{"cpus", "CPU count (default 8)"}});
    int cpus = static_cast<int>(
        args.getInt("cpus", 8, 1, std::numeric_limits<int>::max()));

    printBanner(std::cout,
                "Figure 20: Fluent memory and IP-link utilization "
                "over time (" + std::to_string(cpus) + "P GS1280)");

    auto m = sys::Machine::buildGS1280(cpus);
    sys::Xmesh mon(*m, 60 * tickUs);
    mon.start();

    std::vector<std::unique_ptr<wl::FluentCfd>> ranks;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        ranks.push_back(std::make_unique<wl::FluentCfd>(c, cpus));
        sources.push_back(ranks.back().get());
    }
    bool ok = m->run(sources, 20000 * tickMs);
    mon.stop();

    Table t({"timestamp us", "memory controllers (avg %)",
             "IP-links (avg %)"});
    for (const auto &s : mon.samples()) {
        t.addRow({Table::num(ticksToNs(s.when) / 1000.0, 0),
                  Table::num(s.avgMemUtil * 100, 1),
                  Table::num(s.avgLinkUtil * 100, 1)});
    }
    t.print(std::cout);
    if (!ok)
        std::cout << "[run hit the time limit]\n";
    std::cout << "\npaper: both curves sit at ~2-12% — no memory or "
                 "interconnect stress\n";
    return 0;
}
