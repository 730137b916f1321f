/**
 * @file
 * Figure 6: McCalpin STREAM Triad bandwidth vs CPU count. The
 * GS1280's per-CPU RDRAM makes aggregate bandwidth scale linearly;
 * the shared-memory GS320 saturates per QBB.
 */

#include <iostream>
#include <limits>

#include "common.hh"
#include "sim/args.hh"

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withSweepArgs(
                  {{"max-cpus", "largest GS1280 point (default 32)"},
                   {"array-mb", "per-CPU array MB (default 2)"}}));
    int maxCpus = static_cast<int>(
        args.getInt("max-cpus", 32, 1, std::numeric_limits<int>::max()));
    auto arrayBytes = static_cast<std::uint64_t>(
                          args.getInt("array-mb", 2, 1)) << 20;
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 6: STREAM Triad bandwidth (GB/s) vs CPUs");

    std::vector<int> points;
    for (int cpus : {1, 2, 4, 8, 16, 32, 64})
        if (cpus <= maxCpus)
            points.push_back(cpus);

    auto t = bench::sweepTable(
        runner, {"#CPUs", "GS1280/1.15GHz", "GS320/1.2GHz"}, points,
        [&](int cpus, SweepPoint) -> bench::Row {
            auto gs1280 = sys::Machine::buildGS1280(cpus);
            double a =
                bench::streamTriadGBs(*gs1280, cpus, arrayBytes);

            std::string b = "-";
            if (cpus <= 32 && (cpus % 4 == 0 || cpus < 4)) {
                auto gs320 = sys::Machine::buildGS320(cpus);
                b = Table::num(
                    bench::streamTriadGBs(*gs320, cpus, arrayBytes),
                    2);
            }
            return {Table::num(cpus), Table::num(a, 2), b};
        });
    t.print(std::cout);

    std::cout << "\npaper shape: GS1280 ~4.2 GB/s per CPU, linear to "
                 "64P (~260 GB/s est.); GS320 ~20 GB/s at 32P\n";
    return 0;
}
