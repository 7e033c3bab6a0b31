/**
 * @file
 * Declarative command-line flags: the one grammar every driver parses.
 * Each flag is declared once, as a name, a help string and a typed
 * destination; the table parses argv, prints the usage and renders
 * changed values back into flags (the fuzz repro lines). Spellings:
 * `--name=V` or `--name V`; a bare `--name` for switches and
 * optional-value flags; a short alias (`-j N`); positional arguments,
 * filled in declaration order.
 * Numbers must parse in full ("abc", "42x", "-1" and "" are errors).
 */
#pragma once

#include <charconv>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace windserve::harness {

/** See file comment. Destinations must outlive the table. */
class FlagTable
{
  public:
    /** @param prog for usage(); parse_or_exit() defaults it to argv[0] */
    explicit FlagTable(std::string prog = "") : prog_(std::move(prog)) {}

    /** Declare a flag writing @p dst: a bool (a switch, set by its
     *  presence), an unsigned integer, a double or a std::string.
     *  @p metavar names the value in usage(). */
    template <class T>
    FlagTable &add(std::string name, T &dst, std::string help,
                   std::string metavar = "N");

    /** An optional-value string (`--json[=PATH]`): bare @p name sets
     *  @p dst to @p bare. The value never comes from the next argument. */
    FlagTable &add_optional(std::string name, std::string &dst,
                            std::string bare, std::string help);

    /** A short spelling of the flag declared last (e.g. "-j"). */
    FlagTable &alias(std::string short_name)
    {
        flags_.back().alias = std::move(short_name);
        return *this;
    }

    /** The next positional argument, in declaration order, writing
     *  @p dst (an unsigned integer, a double or a std::string). */
    template <class T>
    FlagTable &positional(std::string name, T &dst, std::string help)
    {
        add(std::move(name), dst, std::move(help));
        pos_.push_back(std::move(flags_.back()));
        flags_.pop_back();
        return *this;
    }

    /** Parse @p args into the destinations. Throws std::invalid_argument
     *  on a bad or missing value or an unknown argument; with
     *  @p pass_unknown, unknown arguments are returned in order. */
    std::vector<std::string> parse(const std::vector<std::string> &args,
                                   bool pass_unknown = false);

    /** parse() argv[1..argc), or fail() with its error. Returns argv[0]
     *  followed by the unknown arguments (valid while the table lives). */
    std::vector<char *> parse_or_exit(int argc, char **argv,
                                      bool pass_unknown = false);

    /** Print @p message and usage() to stderr and exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /** Whether flag @p name appeared on the parsed command line. */
    bool seen(const std::string &name) const;

    /** A synopsis line, then one help line per argument. */
    std::string usage() const;

    /** " --name" / " --name=V" for every flag whose value differs from
     *  its value at declaration, in declaration order. */
    std::string render() const;

  private:
    enum class Arity { None, Required, Optional };

    struct Flag {
        std::string name, alias, metavar, help;
        Arity arity = Arity::Required;
        std::function<bool(const std::string &)> set; ///< false: malformed
        std::function<std::string()> get;             ///< current value
        std::string initial;                          ///< get() at add()
        bool seen = false;
    };

    std::string prog_;
    std::vector<Flag> flags_;
    std::vector<Flag> pos_; ///< positionals, in order
    std::vector<std::string> rest_;
};

template <class T>
FlagTable &
FlagTable::add(std::string name, T &dst, std::string help,
               std::string metavar)
{
    Flag f;
    f.name = std::move(name);
    f.metavar = std::move(metavar);
    f.help = std::move(help);
    if constexpr (std::is_same_v<T, bool>) {
        f.arity = Arity::None;
        f.set = [&dst](const std::string &) { return dst = true; };
    } else if constexpr (std::is_same_v<T, std::string>) {
        f.set = [&dst](const std::string &v) {
            dst = v;
            return true;
        };
    } else {
        static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
        f.set = [&dst](const std::string &v) {
            T x{};
            const char *end = v.data() + v.size();
            auto [ptr, ec] = std::from_chars(v.data(), end, x);
            if (v.empty() || ec != std::errc() || ptr != end)
                return false;
            dst = x;
            return true;
        };
    }
    f.get = [&dst] {
        std::ostringstream os;
        os.precision(17);
        os << dst;
        return os.str();
    };
    f.initial = f.get();
    flags_.push_back(std::move(f));
    return *this;
}

} // namespace windserve::harness
