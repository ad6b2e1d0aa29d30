#include "src/obs/obs.hh"

#include <algorithm>

#include "src/common/json.hh"
#include "src/obs/shared_metrics.hh"

namespace maestro
{
namespace obs
{

std::atomic<std::uint32_t> &
modeWord()
{
    static std::atomic<std::uint32_t> word{0};
    return word;
}

void
enableMode(std::uint32_t bits)
{
    modeWord().fetch_or(bits, std::memory_order_relaxed);
}

void
disableMode(std::uint32_t bits)
{
    modeWord().fetch_and(~bits, std::memory_order_relaxed);
}

// ------------------------------------------------------------------ //
//                              Tracer                                //
// ------------------------------------------------------------------ //

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::start(std::size_t ring_capacity)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ring_ = std::vector<TraceEvent>();
        capacity_ = ring_capacity == 0 ? 1 : ring_capacity;
        head_ = 0;
        recorded_ = 0;
        threads_ = 0;
        ++generation_;
    }
    start_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count(),
        std::memory_order_relaxed);
    active_.store(true, std::memory_order_release);
    enableMode(kSpans | kTiming);
}

void
Tracer::stop()
{
    disableMode(kSpans);
    active_.store(false, std::memory_order_release);
}

bool
Tracer::active() const
{
    return active_.load(std::memory_order_acquire);
}

std::uint64_t
Tracer::nowMicros() const
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    const std::int64_t start =
        start_ns_.load(std::memory_order_relaxed);
    return now > start
               ? static_cast<std::uint64_t>((now - start) / 1000)
               : 0;
}

void
Tracer::record(const TraceEvent &event)
{
    if (!active())
        return;
    // The generation this thread's tid was handed out in.
    thread_local std::uint64_t tl_generation = 0;
    thread_local std::uint32_t tl_tid = 0;

    std::lock_guard<std::mutex> lock(mutex_);
    if (tl_generation != generation_) {
        tl_generation = generation_;
        tl_tid = threads_++;
    }
    TraceEvent stamped = event;
    stamped.tid = tl_tid;
    ++recorded_;
    if (ring_.size() < capacity_) {
        ring_.push_back(stamped);
    } else {
        ring_[head_] = stamped;
        head_ = (head_ + 1) % capacity_;
    }
}

void
Tracer::writeJson(JsonWriter &w) const
{
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
    std::uint32_t threads = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Oldest first: head_ is 0 until the ring wraps.
        events.insert(events.end(), ring_.begin() + head_, ring_.end());
        events.insert(events.end(), ring_.begin(), ring_.begin() + head_);
        dropped = recorded_ - ring_.size();
        threads = threads_;
    }
    // Stable, so equal (ts, tid) keep their record order.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.ts_us != b.ts_us)
                             return a.ts_us < b.ts_us;
                         return a.tid < b.tid;
                     });

    w.beginObject();
    w.key("traceEvents").beginArray();
    for (const TraceEvent &e : events) {
        w.beginObject();
        w.key("name").value(e.name ? e.name : "?");
        w.key("cat").value(e.category ? e.category : "maestro");
        w.key("ph").value("X");
        w.key("ts").value(e.ts_us);
        w.key("dur").value(e.dur_us);
        w.key("pid").value(std::uint64_t{0});
        w.key("tid").value(static_cast<std::uint64_t>(e.tid));
        if (e.arg_name[0]) {
            w.key("args").beginObject();
            for (int i = 0; i < 2; ++i)
                if (e.arg_name[i])
                    w.key(e.arg_name[i]).value(e.arg_value[i]);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.key("maestro").beginObject();
    w.key("dropped_events").value(dropped);
    w.key("threads").value(static_cast<std::uint64_t>(threads));
    w.endObject();
    w.endObject();
}

std::string
Tracer::json() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

std::size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

std::uint64_t
Tracer::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorded_ - ring_.size();
}

// ------------------------------------------------------------------ //
//                            ScopedSpan                              //
// ------------------------------------------------------------------ //

void
ScopedSpan::finish()
{
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t dur_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 -
                                                              t0_)
            .count());
    if ((mode_ & kTiming) != 0 && site_.series != nullptr)
        recordHistogram(site_.series, dur_us);
    if ((mode_ & kSpans) != 0) {
        Tracer &tracer = Tracer::instance();
        if (tracer.active()) {
            TraceEvent event;
            event.name = site_.name;
            event.category = site_.category;
            const std::uint64_t now_us = tracer.nowMicros();
            event.ts_us = now_us > dur_us ? now_us - dur_us : 0;
            event.dur_us = dur_us;
            for (int i = 0; i < 2; ++i) {
                event.arg_name[i] = arg_name_[i];
                event.arg_value[i] = arg_value_[i];
            }
            tracer.record(event);
        }
    }
}

} // namespace obs
} // namespace maestro
