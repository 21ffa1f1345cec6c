/**
 * @file
 * Results sinks shared by the benches: a flat JSON object builder and
 * writeResultsFile, which writes bench/results/<file> (or under
 * COP_BENCH_RESULTS if set, relative to the working directory).
 */

#ifndef COP_BENCH_RUN_UTIL_HPP
#define COP_BENCH_RUN_UTIL_HPP

#include <filesystem>
#include <fstream>

#include "sim/runner.hpp"
#include "sim_util.hpp"

namespace cop::bench {

/** Directory for the JSON results sinks. */
inline std::string
resultsDir()
{
    if (const char *env = std::getenv("COP_BENCH_RESULTS"))
        return env;
    return "bench/results";
}

/** Incremental builder for one flat JSON object. */
class JsonObjectBuilder
{
  public:
    void
    add(const std::string &name, u64 value)
    {
        prefix(name);
        body_ += std::to_string(static_cast<unsigned long long>(value));
    }

    void
    add(const std::string &name, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        prefix(name);
        body_ += buf;
    }

    void
    add(const std::string &name, const std::string &value)
    {
        prefix(name);
        body_ += '"';
        body_ += jsonEscape(value);
        body_ += '"';
    }

    /** Add a pre-serialised JSON value (object, array, ...). */
    void
    addRaw(const std::string &name, const std::string &json)
    {
        prefix(name);
        body_ += json;
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    void
    prefix(const std::string &name)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += '"';
        body_ += jsonEscape(name);
        body_ += "\":";
    }

    std::string body_;
};

/** Write @p text to @p dir/@p filename, creating the directory. */
inline void
writeResultsFile(const std::string &filename, const std::string &text)
{
    const std::filesystem::path dir(resultsDir());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr,
                     "[runner] warning: cannot create %s (%s); "
                     "skipping %s\n",
                     dir.string().c_str(), ec.message().c_str(),
                     filename.c_str());
        return;
    }
    const std::filesystem::path path = dir / filename;
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "[runner] warning: cannot write %s\n",
                     path.string().c_str());
        return;
    }
    out << text << "\n";
}

} // namespace cop::bench

#endif // COP_BENCH_RUN_UTIL_HPP
