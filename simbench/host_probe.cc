/**
 * @file
 * Host-speed probe (see host_probe.hh).
 */

#include "host_probe.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <memory_resource>

#include "spans.hh"

namespace simbench {

namespace {

/** xorshift64*: the probe's own generator, fixed forever. */
struct XorShift
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 2685821657736338717ull;
    }

    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

constexpr std::size_t kHeapOps = 20000;
constexpr std::size_t kMapOps = 15000;
constexpr std::uint64_t kMapKeys = 100000;
constexpr std::size_t kFormatOps = 10000;
/** Room for the map's nodes at their peak (about 7k of 48 bytes),
 *  with margin for the pool's chunk growth. */
constexpr std::size_t kArenaBytes = std::size_t{2} << 20;
/** Rounds per probe; the median round is reported, so one round that
 *  another process interrupts does not move it. */
constexpr int kRounds = 3;

} // namespace

HostProbe::HostProbe()
    : arena_(std::make_unique_for_overwrite<std::byte[]>(kArenaBytes))
{
    heap_.reserve(kHeapOps);
}

/** Min-heap of timestamps: two pops for every three pushes. */
std::uint64_t
HostProbe::heapWork()
{
    XorShift rng{42};
    heap_.clear();
    std::uint64_t sum = 0;
    double now = 0.0;
    for (std::size_t i = 0; i < kHeapOps; ++i) {
        heap_.push_back(now + rng.unit());
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        if (i % 3 != 0) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
            now = heap_.back();
            heap_.pop_back();
            sum += static_cast<std::uint64_t>(now * 1024.0);
        }
    }
    return sum + heap_.size();
}

/** Ordered map: an insert-or-update per step, and on every other step
 *  the erase of the first key at or after a random one. Nodes come
 *  from a free-list pool over the fixed arena. */
std::uint64_t
HostProbe::mapWork()
{
    XorShift rng{9};
    std::pmr::monotonic_buffer_resource arena(
        arena_.get(), kArenaBytes, std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::map<std::uint64_t, std::uint64_t> map(&pool);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kMapOps; ++i) {
        std::uint64_t r = rng.next();
        map[r % kMapKeys] += i;
        if (i % 2 == 1) {
            auto it = map.lower_bound((r >> 7) % kMapKeys);
            if (it != map.end()) {
                sum += it->second;
                map.erase(it);
            }
        }
    }
    return sum + map.size();
}

/** Trace-event lines formatted into a stack buffer, as an exporter
 *  would write them. */
std::uint64_t
HostProbe::formatWork()
{
    XorShift rng{13};
    char line[96];
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kFormatOps; ++i) {
        int n = std::snprintf(line, sizeof(line),
                              "{\"ts\": %.6f, \"id\": %llu}",
                              rng.unit() * 1e4,
                              static_cast<unsigned long long>(rng.next() %
                                                              100000));
        sum += static_cast<std::uint64_t>(n) + static_cast<unsigned char>(
                                                   line[n / 2]);
    }
    return sum;
}

double
HostProbe::run()
{
    std::array<double, kRounds> round_s;
    for (double &t : round_s) {
        const std::int64_t start = nowNs();
        checksum_ = heapWork() ^ (mapWork() << 1) ^ (formatWork() << 2);
        t = static_cast<double>(nowNs() - start) * 1e-9;
    }
    std::sort(round_s.begin(), round_s.end());
    return round_s[kRounds / 2];
}

} // namespace simbench
