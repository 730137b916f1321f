/**
 * @file
 * Figure 4: dependent-load latency vs dataset size on the GS1280,
 * ES45 and GS320 (lmbench lat_mem_rd, 64 B stride).
 *
 * Paper shape: GS1280 ~2.5 ns L1 / ~10 ns on-chip L2 / ~83 ns
 * memory; ES45/GS320 ~25 ns off-chip L2 out to 16 MB, then ~195 ns /
 * ~315 ns memory. GS1280 is 3.8x faster than GS320 at 32 MB but
 * slower in the 1.75-16 MB band.
 */

#include <iostream>

#include "common.hh"
#include "sim/args.hh"

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withSweepArgs(
                  {{"loads", "loads per point (default 6000)"}}));
    auto loads = static_cast<std::uint64_t>(args.getInt("loads", 6000, 1));
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 4: dependent load latency vs dataset (ns)");

    const std::vector<std::uint64_t> sizes = {
        4ULL << 10,   16ULL << 10,  64ULL << 10,  256ULL << 10,
        512ULL << 10, 1ULL << 20,   2ULL << 20,   4ULL << 20,
        8ULL << 20,   16ULL << 20,  32ULL << 20,  64ULL << 20,
        128ULL << 20,
    };

    auto t = bench::sweepTable(
        runner,
        {"dataset", "GS1280/1.15GHz", "ES45/1.25GHz", "GS320/1.22GHz"},
        sizes, [&](std::uint64_t size, SweepPoint) -> bench::Row {
            // Fresh machines per point; warm with one full pass so
            // cache-resident sizes measure hits, then measure.
            auto probe = [&](sys::Machine &m) {
                std::uint64_t lines = size / 64;
                // Warm with one full pass when a cache could hold
                // the set; beyond 24 MB nothing caches it and cold
                // access is the measurement.
                if (size <= (24ULL << 20))
                    bench::dependentLoadNs(m, 0, 0, size, 64, lines);
                return bench::dependentLoadNs(m, 0, 0, size, 64,
                                              std::min(loads,
                                                       4 * lines));
            };
            auto gs1280 = sys::Machine::buildGS1280(2);
            auto es45 = sys::Machine::buildES45(2);
            auto gs320 = sys::Machine::buildGS320(4);

            std::string label =
                size >= (1ULL << 20)
                    ? Table::num(std::uint64_t(size >> 20)) + "m"
                    : Table::num(std::uint64_t(size >> 10)) + "k";
            return {label, Table::num(probe(*gs1280), 1),
                    Table::num(probe(*es45), 1),
                    Table::num(probe(*gs320), 1)};
        });
    t.print(std::cout);

    std::cout << "\npaper anchors: GS1280 83 ns / ES45 ~195 ns / "
                 "GS320 ~315 ns at 32m;\n"
                 "GS320/ES45 ~25 ns in the 2m-16m band (16 MB "
                 "off-chip cache)\n";
    return 0;
}
