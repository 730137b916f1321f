/**
 * @file
 * Minimal command-line option parsing for bench/example binaries.
 *
 * Supports `--key=value` and `--flag` forms plus `--help`. Unknown
 * options and malformed or out-of-range numbers are fatal so that
 * typos in sweep scripts fail loudly.
 */

#ifndef GS_SIM_ARGS_HH
#define GS_SIM_ARGS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace gs
{

/** Parsed command line with typed accessors and defaults. */
class Args
{
  public:
    /**
     * Parse argv. @p known maps option name -> help text; options not
     * in @p known (other than help) terminate the program.
     */
    Args(int argc, char **argv,
         std::map<std::string, std::string> known = {});

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;

    /**
     * The integer value of --key (decimal, 0x hex or 0 octal), or
     * @p def when absent. A value that is not wholly a number, or a
     * given value outside [@p lo, @p hi], is a fatal error naming
     * the option.
     */
    std::int64_t
    getInt(const std::string &key, std::int64_t def,
           std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
           std::int64_t hi = std::numeric_limits<std::int64_t>::max())
        const;

    /** Floating-point counterpart of getInt(), same rules. */
    double getDouble(const std::string &key, double def,
                     double lo = std::numeric_limits<double>::lowest(),
                     double hi = std::numeric_limits<double>::max())
        const;

    bool getBool(const std::string &key, bool def) const;

    /**
     * Whether @p text is wholly an integer by getInt()'s rules
     * (decimal, 0x hex or 0 octal; no trailing text, no overflow);
     * the value goes to @p out. For options that embed numbers,
     * such as --tile-shape=RxC.
     */
    static bool parseInteger(const std::string &text, std::int64_t *out);

  private:
    std::map<std::string, std::string> values;
};

} // namespace gs

#endif // GS_SIM_ARGS_HH
