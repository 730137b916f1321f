/**
 * @file
 * External-link heatmap (extension of Figure 24), regenerated from
 * the telemetry layer instead of the Xmesh monitor: a 32P (8x4
 * torus) GS1280 runs GUPS while a Sampler records every router
 * port's flit rate as a busy fraction. The bench then reduces those
 * per-link time-series to the paper's story — East/West (horizontal)
 * links run hotter than North/South because the 8-wide dimension
 * carries more of the uniform traffic — plus a per-node ASCII
 * heatmap of where the East/West load lands on the torus.
 *
 * The same series are what --stats-out embeds in its JSON, so this
 * bench doubles as a readable cross-check of that export.
 */

#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "sim/args.hh"
#include "topology/torus.hh"
#include "workload/gups.hh"

namespace
{

using namespace gs;

/** Mean of series @p idxs at sample @p t. */
double
meanAt(const std::vector<telem::Sampler::Series> &series,
       const std::vector<std::size_t> &idxs, std::size_t t)
{
    if (idxs.empty())
        return 0.0;
    double sum = 0;
    for (std::size_t i : idxs)
        sum += series[i].values[t];
    return sum / static_cast<double>(idxs.size());
}

/** Node id embedded in a "node.<n>...." telemetry path. */
int
nodeOf(const std::string &path)
{
    return std::stoi(path.substr(std::string("node.").size()));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withTelemetryArgs(
                  {{"updates", "updates per CPU (default 2000)"},
                   {"seed", "master seed (default 1)"}}));
    auto updates =
        static_cast<std::uint64_t>(args.getInt("updates", 2000, 1));
    auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1, 0));

    printBanner(std::cout,
                "Link heatmap: GUPS on the 32P GS1280 (8x4 torus), "
                "from sampled telemetry");

    const int cpus = 32;
    sys::Gs1280Options opt;
    opt.mlp = 16;
    opt.seed = seed;
    auto m = sys::Machine::buildGS1280(cpus, opt);
    bench::TelemetrySession session(args, *m, /*force_sample=*/true);

    std::vector<std::unique_ptr<wl::Gups>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        gens.push_back(std::make_unique<wl::Gups>(
            cpus, 256ULL << 20, updates,
            Rng::deriveSeed(seed, static_cast<std::uint64_t>(c))));
        sources.push_back(gens.back().get());
    }
    bool ok = m->run(sources, 60000 * tickMs);
    session.finish();

    // Classify the sampled series by what they measure.
    const auto &series = session.sampler()->series();
    const auto &times = session.sampler()->times();
    std::vector<std::size_t> ew, ns, mem;
    for (std::size_t i = 0; i < series.size(); ++i) {
        const std::string &p = series[i].path;
        if (p.find(".port.E.") != std::string::npos ||
            p.find(".port.W.") != std::string::npos) {
            ew.push_back(i);
        } else if (p.find(".port.N.") != std::string::npos ||
                   p.find(".port.S.") != std::string::npos) {
            ns.push_back(i);
        } else if (p.find(".busy_ticks") != std::string::npos) {
            mem.push_back(i);
        }
    }

    // Utilization over time, strided to a readable number of rows.
    Table t({"timestamp us", "memory controller %",
             "avg North/South %", "avg East/West %"});
    std::size_t stride = std::max<std::size_t>(1, times.size() / 16);
    double ewSum = 0, nsSum = 0;
    for (std::size_t s = 0; s < times.size(); ++s) {
        double e = meanAt(series, ew, s);
        double n = meanAt(series, ns, s);
        ewSum += e;
        nsSum += n;
        if (s % stride == 0) {
            t.addRow({Table::num(ticksToNs(times[s]) / 1000.0, 1),
                      Table::num(meanAt(series, mem, s) * 100, 1),
                      Table::num(n * 100, 1), Table::num(e * 100, 1)});
        }
    }
    t.print(std::cout);
    if (!ok)
        std::cout << "[run hit the time limit]\n";
    if (nsSum > 0) {
        std::cout << "\nEast/West : North/South utilization ratio: "
                  << Table::num(ewSum / nsSum, 2)
                  << "   (paper: E/W runs visibly hotter in the 8x4 "
                     "torus)\n";
    }

    // Per-node East/West load, time-averaged, drawn on the torus.
    std::map<int, double> nodeEw;
    for (std::size_t i : ew) {
        double sum = 0;
        for (double v : series[i].values)
            sum += v;
        nodeEw[nodeOf(series[i].path)] +=
            series[i].values.empty()
                ? 0.0
                : sum / static_cast<double>(series[i].values.size());
    }
    double peak = 0;
    for (const auto &[n, u] : nodeEw)
        peak = std::max(peak, u);
    const std::string shades = " .:-=+*#%@";
    std::cout << "\nE/W load per node (8x4 torus, '@' = hottest):\n";
    for (int y = 0; y < 4; ++y) {
        std::cout << "  ";
        for (int x = 0; x < 8; ++x) {
            double u = peak > 0 ? nodeEw[y * 8 + x] / peak : 0.0;
            auto idx = static_cast<std::size_t>(
                u * static_cast<double>(shades.size() - 1));
            std::cout << shades[std::min(idx, shades.size() - 1)]
                      << ' ';
        }
        std::cout << "\n";
    }
    return 0;
}
