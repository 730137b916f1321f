/**
 * @file
 * Figure 5: GS1280 dependent-load latency as dataset size and stride
 * grow — the open-page (~80 ns) to closed-page (~130 ns) surface.
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
                  {{"loads", "loads per point (default 3000)"}}));
    auto loads = static_cast<std::uint64_t>(args.getInt("loads", 3000, 1));
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 5: GS1280 dependent-load latency (ns) by "
                "dataset x stride");

    const std::vector<std::uint64_t> strides = {64,   128,  256,  1024,
                                                4096, 8192, 16384};
    const std::vector<std::uint64_t> sizes = {1ULL << 20, 4ULL << 20,
                                              16ULL << 20, 64ULL << 20};

    // One sweep point per (dataset, stride) cell of the surface.
    struct Cell
    {
        std::uint64_t size;
        std::uint64_t stride;
    };
    std::vector<Cell> cells;
    for (std::uint64_t size : sizes)
        for (std::uint64_t stride : strides)
            cells.push_back({size, stride});

    auto values =
        runner.map(cells, [&](const Cell &c, SweepPoint) -> double {
            auto m = sys::Machine::buildGS1280(2);
            std::uint64_t steps = c.size / c.stride;
            std::uint64_t n = std::min(loads, 4 * steps);
            // Warm only when the set is L2-resident.
            if (c.size <= (2ULL << 20))
                bench::dependentLoadNs(*m, 0, 0, c.size, c.stride,
                                       steps);
            return bench::dependentLoadNs(*m, 0, 0, c.size, c.stride,
                                          n);
        });

    std::vector<std::string> header{"dataset\\stride"};
    for (auto s : strides)
        header.push_back(Table::num(std::uint64_t(s)));
    Table t(header);
    for (std::size_t y = 0; y < sizes.size(); ++y) {
        std::vector<std::string> row{
            Table::num(std::uint64_t(sizes[y] >> 20)) + "m"};
        for (std::size_t x = 0; x < strides.size(); ++x)
            row.push_back(
                Table::num(values[y * strides.size() + x], 1));
        t.addRow(row);
    }
    t.print(std::cout);

    std::cout << "\npaper: ~80 ns open-page (small stride) rising to "
                 "~130 ns closed-page (large stride);\n"
                 "cache-resident sets stay at L2/L1 latency\n";
    return 0;
}
