/**
 * @file
 * Figure 11: GS1280 memory-controller utilization over the run,
 * SPECint2000 — low everywhere but mcf (the paper's 0-28% axis).
 */

#include <iostream>
#include <limits>

#include "cpu/analytic_core.hh"
#include "sim/args.hh"
#include "sim/table.hh"
#include "workload/spec_profiles.hh"

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv, {{"samples", "time samples (default 16)"}});
    int samples = static_cast<int>(
        args.getInt("samples", 16, 1, std::numeric_limits<int>::max()));

    printBanner(std::cout,
                "Figure 11: SPECint2000 memory controller utilization "
                "(%, time samples left to right)");

    auto machine = cpu::MachineTiming::gs1280();

    std::vector<std::string> header{"benchmark", "mean"};
    for (int s = 0; s < samples; ++s)
        header.push_back("t" + std::to_string(s));
    Table t(header);

    for (const auto &p : wl::specInt2000()) {
        auto series = cpu::utilizationSeries(p, machine, samples);
        double mean = 0;
        for (double u : series)
            mean += u;
        mean /= static_cast<double>(samples);

        std::vector<std::string> row{p.name, Table::num(mean * 100, 1)};
        for (double u : series)
            row.push_back(Table::num(u * 100, 0));
        t.addRow(row);
    }
    t.print(std::cout);

    std::cout << "\npaper shape: mcf leads (pointer-chasing misses); "
                 "everything else sits in low single digits\n";
    return 0;
}
