#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mio {

Flags::Flags(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (strncmp(arg, "--", 2) != 0)
            continue;
        std::string body(arg + 2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            values_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc && strncmp(argv[i + 1], "--", 2) != 0) {
            values_[body] = argv[++i];
        } else {
            values_[body] = "true";
        }
    }
}

bool
Flags::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
Flags::getString(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

namespace {

/** Report a malformed value for --@p name and exit: a typo must not
 *  silently run with the default. */
[[noreturn]] void
badValue(const std::string &name, const std::string &value,
         const char *expected)
{
    fprintf(stderr, "error: --%s=%s: expected %s\n", name.c_str(),
            value.c_str(), expected);
    exit(EXIT_FAILURE);
}

} // namespace

int64_t
Flags::getInt(const std::string &name, int64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const char *s = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    long long v = strtoll(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE)
        badValue(name, it->second, "an integer");
    return v;
}

double
Flags::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const char *s = it->second.c_str();
    char *end = nullptr;
    double v = strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v))
        badValue(name, it->second, "a number");
    return v;
}

bool
Flags::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    badValue(name, v, "true/false/1/0/yes/no");
}

uint64_t
Flags::getSize(const std::string &name, uint64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const char *s = it->second.c_str();
    char *end = nullptr;
    double v = strtod(s, &end);
    uint64_t mult = 1;
    if (end != s) {
        switch (*end) {
          case 'k': case 'K': mult = 1024ULL; end++; break;
          case 'm': case 'M': mult = 1024ULL * 1024; end++; break;
          case 'g': case 'G': mult = 1024ULL * 1024 * 1024; end++; break;
          default: break;
        }
    }
    v *= static_cast<double>(mult);
    if (end == s || *end != '\0' || !(v >= 0) || v >= 0x1p64)
        badValue(name, it->second, "a size (bytes, or with k/m/g)");
    return static_cast<uint64_t>(v);
}

} // namespace mio
