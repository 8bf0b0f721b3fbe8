/**
 * @file
 * Host-speed probe: a fixed piece of work that uses none of the
 * simulator's code, timed after every repetition.
 *
 * The measuring machine is shared, and its speed drifts with other
 * tenants' load, by up to 2x within seconds. The benchmark scales
 * each repetition's host times by the probe times measured around
 * it, so that most of the drift cancels while a change to the
 * simulator does not: the probe runs the same instructions on every
 * commit.
 *
 * The work is a binary heap of timestamps (like the event queue),
 * inserts, lookups and erases in an ordered map (node allocation and
 * pointer walks, like the schedulers' queues) and printf-style
 * formatting of trace lines (like the exporters). simbench/README.md
 * gives the measurements behind this mix.
 */

#ifndef SIMBENCH_HOST_PROBE_HH
#define SIMBENCH_HOST_PROBE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace simbench {

class HostProbe
{
  public:
    /** Allocates the probe's memory, once: the heap and the map's
     *  node arena. The probe never allocates from the global heap, so
     *  it leaves the simulator's heap layout, and with it peak memory,
     *  as it found them. */
    HostProbe();

    /** Probe-scaled times are host seconds of a machine on which the
     *  probe takes this long (a fixed convention). */
    static constexpr double kReferenceS = 0.010;

    /** Run the fixed work three times; returns the median round's host
     *  seconds. */
    double run();

    /** Checksum of the last run: identical on every run, or the probe
     *  did not do the same work. */
    std::uint64_t checksum() const { return checksum_; }

  private:
    std::uint64_t heapWork();
    std::uint64_t mapWork();
    std::uint64_t formatWork();

    std::vector<double> heap_;
    /** Left uninitialised: only the pages the map uses are touched. */
    std::unique_ptr<std::byte[]> arena_;
    std::uint64_t checksum_ = 0;
};

} // namespace simbench

#endif // SIMBENCH_HOST_PROBE_HH
