#include "obs/timeseries.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dfault::obs {

TimeSeries::TimeSeries(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 2))
{
    ring_.reserve(capacity_);
}

void
TimeSeries::push(std::uint64_t tick, double value)
{
    DFAULT_ASSERT(size_ == 0 || tick >= latest().tick,
                  "time-series ticks must be non-decreasing");
    if (ring_.size() < capacity_) {
        ring_.push_back({tick, value});
        ++size_;
    } else {
        ring_[head_] = {tick, value};
    }
    head_ = (head_ + 1) % capacity_;
}

TsSample
TimeSeries::at(std::size_t i) const
{
    DFAULT_ASSERT(i < size_, "time-series index out of range");
    if (size_ < capacity_)
        return ring_[i];
    return ring_[(head_ + i) % capacity_];
}

TsSample
TimeSeries::latest() const
{
    DFAULT_ASSERT(size_ > 0, "latest() on an empty time series");
    return at(size_ - 1);
}

double
TimeSeries::windowMin(std::size_t window) const
{
    if (size_ == 0)
        return 0.0;
    const std::size_t n = std::min(window, size_);
    double out = at(size_ - n).value;
    for (std::size_t i = size_ - n + 1; i < size_; ++i)
        out = std::min(out, at(i).value);
    return out;
}

double
TimeSeries::windowMax(std::size_t window) const
{
    if (size_ == 0)
        return 0.0;
    const std::size_t n = std::min(window, size_);
    double out = at(size_ - n).value;
    for (std::size_t i = size_ - n + 1; i < size_; ++i)
        out = std::max(out, at(i).value);
    return out;
}

double
TimeSeries::ratePerSecond(std::size_t window,
                          double interval_seconds) const
{
    if (size_ < 2 || interval_seconds <= 0.0)
        return 0.0;
    const std::size_t n = std::min(std::max<std::size_t>(window, 2),
                                   size_);
    const TsSample first = at(size_ - n);
    const TsSample last = at(size_ - 1);
    if (last.tick <= first.tick)
        return 0.0;
    const double delta = last.value - first.value;
    if (delta < 0.0)
        return 0.0; // counter reset
    const double span =
        static_cast<double>(last.tick - first.tick) * interval_seconds;
    return delta / span;
}

TimeSeriesStore::TimeSeriesStore(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 2))
{
}

TimeSeries &
TimeSeriesStore::series(const std::string &name)
{
    const auto it = map_.find(name);
    if (it != map_.end())
        return it->second;
    return map_.emplace(name, TimeSeries(capacity_)).first->second;
}

const TimeSeries *
TimeSeriesStore::find(const std::string &name) const
{
    const auto it = map_.find(name);
    return it == map_.end() ? nullptr : &it->second;
}

std::vector<std::string>
TimeSeriesStore::names() const
{
    std::vector<std::string> out;
    out.reserve(map_.size());
    for (const auto &kv : map_)
        out.push_back(kv.first);
    return out;
}

} // namespace dfault::obs
