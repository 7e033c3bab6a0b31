#include "harness/flags.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace windserve::harness {

FlagTable &
FlagTable::add_optional(std::string name, std::string &dst, std::string bare,
                        std::string help)
{
    add(std::move(name), dst, std::move(help), "PATH");
    flags_.back().arity = Arity::Optional;
    flags_.back().set = [&dst, bare = std::move(bare)](const std::string &v) {
        dst = v.empty() ? bare : v;
        return true;
    };
    return *this;
}

std::vector<std::string>
FlagTable::parse(const std::vector<std::string> &args, bool pass_unknown)
{
    std::vector<std::string> unknown;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        std::string key = arg.substr(0, arg.find('='));
        auto f = std::find_if(flags_.begin(), flags_.end(), [&](auto &g) {
            return g.name == key || (!g.alias.empty() && g.alias == key);
        });
        if (f == flags_.end()) {
            bool plain = arg.size() < 2 || arg[0] != '-';
            auto p = std::find_if(pos_.begin(), pos_.end(),
                                  [](const Flag &g) { return !g.seen; });
            if (plain && p != pos_.end()) {
                if (!p->set(arg))
                    throw std::invalid_argument("bad " + p->name + ": '" +
                                                arg + "'");
                p->seen = true;
            } else if (pass_unknown) {
                unknown.push_back(arg);
            } else {
                throw std::invalid_argument("unknown argument: " + arg);
            }
            continue;
        }
        std::string value;
        if (key.size() < arg.size()) { // --name=V
            if (f->arity == Arity::None)
                throw std::invalid_argument(key + " takes no value");
            value = arg.substr(key.size() + 1);
            if (value.empty())
                throw std::invalid_argument("missing value for " + key);
        } else if (f->arity == Arity::Required) {
            if (i + 1 == args.size())
                throw std::invalid_argument("missing value for " + key);
            value = args[++i];
        }
        if (!f->set(value))
            throw std::invalid_argument("bad value for " + key + ": '" +
                                        value + "'");
        f->seen = true;
    }
    return unknown;
}

std::vector<char *>
FlagTable::parse_or_exit(int argc, char **argv, bool pass_unknown)
{
    if (prog_.empty()) {
        prog_ = argv[0];
        prog_.erase(0, prog_.find_last_of('/') + 1);
    }
    try {
        rest_ = parse({argv + 1, argv + argc}, pass_unknown);
    } catch (const std::invalid_argument &e) {
        fail(e.what());
    }
    std::vector<char *> out{argv[0]};
    for (std::string &s : rest_)
        out.push_back(s.data());
    return out;
}

void
FlagTable::fail(const std::string &message) const
{
    std::cerr << prog_ << ": " << message << "\n" << usage();
    std::exit(2);
}

bool
FlagTable::seen(const std::string &name) const
{
    for (const Flag &f : flags_)
        if (f.name == name)
            return f.seen;
    return false;
}

std::string
FlagTable::usage() const
{
    std::vector<std::pair<std::string, std::string>> rows;
    std::string synopsis;
    for (const Flag &p : pos_) {
        rows.emplace_back(p.name, p.help);
        synopsis += " [" + p.name + "]";
    }
    for (const Flag &f : flags_) {
        std::string v = f.arity == Arity::Required   ? " " + f.metavar
                        : f.arity == Arity::Optional ? "[=" + f.metavar + "]"
                                                     : "";
        std::string alias = f.alias.empty() ? "" : ", " + f.alias + v;
        rows.emplace_back(f.name + v + alias, f.help);
    }
    std::size_t width = 0;
    for (const auto &r : rows)
        width = std::max(width, r.first.size());
    std::string out = "usage: " + prog_ + synopsis +
                      (flags_.empty() ? "" : " [options]") + "\n";
    for (const auto &[arg, help] : rows)
        out += "  " + arg + std::string(width + 2 - arg.size(), ' ') + help +
               "\n";
    return out;
}

std::string
FlagTable::render() const
{
    std::string out;
    for (const Flag &f : flags_) {
        std::string v = f.get();
        if (v != f.initial)
            out += " " + f.name + (f.arity == Arity::None ? "" : "=" + v);
    }
    return out;
}

} // namespace windserve::harness
