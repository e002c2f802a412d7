#include "sim/failpoint.h"

#include <cstdlib>

namespace mio::sim {

FailpointRegistry &
FailpointRegistry::instance()
{
    static FailpointRegistry registry;
    return registry;
}

void
FailpointRegistry::recomputeActiveLocked()
{
    active_.store(!armed_.empty() || global_hits_left_ > 0 || tracking_,
                  std::memory_order_relaxed);
}

void
FailpointRegistry::armCrash(const std::string &point, uint64_t nth)
{
    if (nth == 0)
        nth = 1;
    std::lock_guard<std::mutex> lock(mu_);
    armed_[point] = nth;
    recomputeActiveLocked();
}

void
FailpointRegistry::armCrashOnGlobalHit(uint64_t nth)
{
    if (nth == 0)
        nth = 1;
    std::lock_guard<std::mutex> lock(mu_);
    global_hits_left_ = nth;
    recomputeActiveLocked();
}

void
FailpointRegistry::disarm(const std::string &point)
{
    std::lock_guard<std::mutex> lock(mu_);
    armed_.erase(point);
    recomputeActiveLocked();
}

void
FailpointRegistry::disarmAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    armed_.clear();
    hits_.clear();
    fired_.clear();
    global_hits_left_ = 0;
    total_hits_ = 0;
    tracking_ = false;
    last_crash_.clear();
    recomputeActiveLocked();
}

void
FailpointRegistry::setTracking(bool on)
{
    std::lock_guard<std::mutex> lock(mu_);
    tracking_ = on;
    recomputeActiveLocked();
}

int
FailpointRegistry::armFromSpec(const std::string &spec)
{
    int armed = 0;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            continue;
        std::string point = item.substr(0, eq);
        std::string action = item.substr(eq + 1);
        uint64_t nth = 1;
        size_t at = action.find('@');
        if (at != std::string::npos) {
            nth = strtoull(action.c_str() + at + 1, nullptr, 10);
            action = action.substr(0, at);
        }
        if (action != "crash")
            continue;
        armCrash(point, nth);
        armed++;
    }
    return armed;
}

void
FailpointRegistry::initFromEnv()
{
    const char *spec = getenv("MIO_FAILPOINTS");
    if (spec != nullptr)
        armFromSpec(spec);
}

uint64_t
FailpointRegistry::hitCount(const std::string &point) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = hits_.find(point);
    return it == hits_.end() ? 0 : it->second;
}

uint64_t
FailpointRegistry::totalHits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_hits_;
}

bool
FailpointRegistry::fired(const std::string &point) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = fired_.find(point);
    return it != fired_.end() && it->second > 0;
}

std::string
FailpointRegistry::lastCrashPoint() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return last_crash_;
}

std::vector<std::string>
FailpointRegistry::seenPoints() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> points;
    points.reserve(hits_.size());
    for (const auto &[name, count] : hits_)
        points.push_back(name);
    return points;
}

void
FailpointRegistry::hit(const char *point)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (!active_.load(std::memory_order_relaxed))
        return;  // disarmed between the macro's check and here
    hits_[point]++;
    total_hits_++;

    bool crash = false;
    auto it = armed_.find(point);
    if (it != armed_.end() && --it->second == 0) {
        armed_.erase(it);  // one-shot
        crash = true;
    }
    if (!crash && global_hits_left_ > 0 && --global_hits_left_ == 0)
        crash = true;

    if (crash) {
        fired_[point]++;
        crashes_fired_.fetch_add(1, std::memory_order_release);
        last_crash_ = point;
        recomputeActiveLocked();
        lock.unlock();
        throw SimCrash(point);
    }
}

void
failpointHit(const char *point)
{
    FailpointRegistry::instance().hit(point);
}

} // namespace mio::sim
