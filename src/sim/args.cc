#include "sim/args.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace gs
{

namespace
{

/** Die unless @p v lies in [@p lo, @p hi]; open ends stay unnamed. */
template <typename T>
void
checkRange(const std::string &key, const std::string &text, T v, T lo,
           T hi)
{
    if (v >= lo && v <= hi)
        return;
    if (hi == std::numeric_limits<T>::max())
        gs_fatal("--", key, "=", text, ": expected a value >= ", lo);
    if (lo == std::numeric_limits<T>::lowest())
        gs_fatal("--", key, "=", text, ": expected a value <= ", hi);
    gs_fatal("--", key, "=", text, ": expected a value in [", lo, ", ",
             hi, "]");
}

} // namespace

Args::Args(int argc, char **argv, std::map<std::string, std::string> known)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            gs_fatal("unexpected positional argument: ", arg);
        arg = arg.substr(2);

        std::string key = arg, value = "1";
        if (auto eq = arg.find('='); eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        }

        if (key == "help") {
            std::printf("options:\n");
            for (const auto &[name, help] : known)
                std::printf("  --%-20s %s\n", name.c_str(), help.c_str());
            std::exit(0);
        }
        if (!known.empty() && !known.count(key))
            gs_fatal("unknown option --", key, " (try --help)");
        values[key] = value;
    }
}

bool
Args::has(const std::string &key) const
{
    return values.count(key) != 0;
}

std::string
Args::getString(const std::string &key, const std::string &def) const
{
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
}

std::int64_t
Args::getInt(const std::string &key, std::int64_t def, std::int64_t lo,
             std::int64_t hi) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    std::int64_t v = 0;
    if (!parseInteger(it->second, &v))
        gs_fatal("--", key, "=", it->second, ": expected an integer");
    checkRange<std::int64_t>(key, it->second, v, lo, hi);
    return v;
}

bool
Args::parseInteger(const std::string &text, std::int64_t *out)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(begin, &end, 0);
    if (end == begin || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

double
Args::getDouble(const std::string &key, double def, double lo,
                double hi) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v))
        gs_fatal("--", key, "=", it->second, ": expected a number");
    checkRange(key, it->second, v, lo, hi);
    return v;
}

bool
Args::getBool(const std::string &key, bool def) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    return it->second != "0" && it->second != "false" &&
           it->second != "no";
}

} // namespace gs
