#include "common/fault.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>

#include "common/env.hh"
#include "common/logging.hh"

namespace psca {
namespace {

/** The site catalog (fault.hh): every name a FAULT_SITE may use. */
const char *const kSiteNames[] = {
    "telemetry.stuck_counter", "telemetry.saturation",
    "telemetry.noise",         "telemetry.dropped_snapshot",
    "uc.deadline_miss",        "uc.vm_trap",
    "persist.memo_corrupt",    "persist.cache_corrupt",
    "persist.io_error",        "serve.retrain_fail",
    "serve.swap_crash",        "serve.shadow_corrupt",
    "serve.probation_regress",
};

bool
isKnownSite(const std::string &name)
{
    return std::find(std::begin(kSiteNames), std::end(kSiteNames),
                     name) != std::end(kSiteNames);
}

/** FNV-1a 64 over the site name, for seed derivation. */
uint64_t
hashName(const std::string &name)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

FaultRegistry &
FaultRegistry::instance()
{
    static FaultRegistry registry;
    return registry;
}

FaultRegistry::FaultRegistry()
{
    seed_ = static_cast<uint64_t>(
        env::intOr("PSCA_FAULT_SEED", 0x5053434146544cULL, 0,
                   std::numeric_limits<long long>::max()));
    configure(env::stringOr("PSCA_FAULTS", ""), seed_);
}

FaultSite &
FaultRegistry::site(const std::string &name)
{
    PSCA_ASSERT(isKnownSite(name), "fault site '", name,
                "' is not in the catalog (common/fault.cc)");
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(name);
    if (it == sites_.end()) {
        auto inserted = sites_.emplace(
            name,
            std::unique_ptr<FaultSite>(new FaultSite(name)));
        it = inserted.first;
        armSite(*it->second);
    }
    return *it->second;
}

void
FaultRegistry::configure(const std::string &spec)
{
    configure(spec, seed_);
}

void
FaultRegistry::configure(const std::string &spec, uint64_t seed)
{
    std::lock_guard<std::mutex> lock(mu_);
    seed_ = seed;
    spec_.clear();

    // Parse "site:rate[:param],..." — a malformed entry is fatal so a
    // typo'd fault mix can never silently run fault-free.
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;

        const size_t c1 = entry.find(':');
        if (c1 == std::string::npos || c1 == 0)
            fatal("PSCA_FAULTS entry '", entry,
                  "': expected site:rate[:param]");
        const std::string name = entry.substr(0, c1);
        if (!isKnownSite(name)) {
            std::string known;
            for (const char *n : kSiteNames)
                known += std::string(known.empty() ? "" : ", ") + n;
            fatal("PSCA_FAULTS entry '", entry, "': unknown site '",
                  name, "' (known sites: ", known, ")");
        }
        const size_t c2 = entry.find(':', c1 + 1);
        const std::string rate_s = c2 == std::string::npos
            ? entry.substr(c1 + 1)
            : entry.substr(c1 + 1, c2 - c1 - 1);

        SpecEntry se;
        if (!env::tryParseDouble(rate_s.c_str(), se.rate) ||
            se.rate < 0.0 || se.rate > 1.0)
            fatal("PSCA_FAULTS entry '", entry, "': rate '", rate_s,
                  "' is not a probability in [0, 1]");
        if (c2 != std::string::npos) {
            const std::string param_s = entry.substr(c2 + 1);
            if (!env::tryParseDouble(param_s.c_str(), se.param))
                fatal("PSCA_FAULTS entry '", entry, "': param '",
                      param_s, "' is not a number");
            se.hasParam = true;
        }
        if (spec_.count(name))
            fatal("PSCA_FAULTS names site '", name, "' twice");
        spec_[name] = se;
    }

    anyEnabled_ = false;
    for (const auto &kv : spec_)
        if (kv.second.rate > 0.0)
            anyEnabled_ = true;

    for (auto &kv : sites_)
        armSite(*kv.second);
}

void
FaultRegistry::armSite(FaultSite &site) const
{
    site.fireCount_.store(0, std::memory_order_relaxed);
    site.siteSeed_ = taskSeed(seed_, hashName(site.name_));
    const auto it = spec_.find(site.name_);
    if (it == spec_.end()) {
        site.enabled_ = false;
        site.rate_ = 0.0;
        site.param_ = 0.0;
        site.hasParam_ = false;
        return;
    }
    site.rate_ = it->second.rate;
    site.param_ = it->second.param;
    site.hasParam_ = it->second.hasParam;
    site.enabled_ = site.rate_ > 0.0;
    inform("fault site ", site.name_, " armed: rate=", site.rate_,
           site.hasParam_ ? " param=" : "",
           site.hasParam_ ? std::to_string(site.param_) : "");
}

uint64_t
FaultRegistry::specHash() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!anyEnabled_)
        return 0;
    uint64_t h = mixSeeds(0xfa017ULL, seed_);
    for (const auto &[name, se] : spec_) {
        h = mixSeeds(h, hashName(name));
        h = mixSeeds(h, std::bit_cast<uint64_t>(se.rate));
        h = mixSeeds(h, std::bit_cast<uint64_t>(se.param));
        h = mixSeeds(h, se.hasParam ? 1 : 0);
    }
    return h;
}

void
FaultRegistry::forEachSite(
    const std::function<void(const FaultSite &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &kv : sites_)
        fn(*kv.second);
}

} // namespace psca
