/**
 * @file
 * A list of at most N elements held in place, with no heap storage.
 *
 * The analysis engines build short lists per tensor and per level for
 * every candidate they score (a tensor's storage dims, a level's nest
 * loops, the per-loop deltas), and each has a hard bound, so they stay
 * off the heap. Pushing past the capacity is a library bug and aborts.
 * So is an index at or past the size in builds that define
 * _GLIBCXX_ASSERTIONS (the bounds-checked sanitizer build): such an
 * index stays inside the object, where ASan cannot see it.
 */

#ifndef MAESTRO_COMMON_INLINE_LIST_HH
#define MAESTRO_COMMON_INLINE_LIST_HH

#include <algorithm>
#include <array>
#include <cstddef>

#include "src/common/error.hh"

namespace maestro
{

/** At most N elements of T, in insertion order. */
template <typename T, std::size_t N>
class InlineList
{
  public:
    /** Most elements the list holds. */
    static constexpr std::size_t kCapacity = N;

    /** Appends `value`; aborts when the list is full. */
    void
    push_back(const T &value)
    {
        panicIf(size_ == N, "InlineList: more than ", N, " elements");
        items_[size_++] = value;
    }

    /** Replaces the contents with `count` copies of `value`; aborts
     *  when `count` exceeds the capacity. */
    void
    assign(std::size_t count, const T &value)
    {
        panicIf(count > N, "InlineList: ", count, " elements, more than ",
                N);
        std::fill_n(items_.begin(), count, value);
        size_ = count;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return items_[checked(i)]; }
    const T &operator[](std::size_t i) const { return items_[checked(i)]; }
    const T &back() const { return items_[checked(size_ - 1)]; }

    T *begin() { return items_.data(); }
    T *end() { return items_.data() + size_; }
    const T *begin() const { return items_.data(); }
    const T *end() const { return items_.data() + size_; }

  private:
    std::size_t
    checked(std::size_t i) const
    {
#ifdef _GLIBCXX_ASSERTIONS
        panicIf(i >= size_, "InlineList: index ", i, " past size ", size_);
#endif
        return i;
    }

    std::array<T, N> items_{};
    std::size_t size_ = 0;
};

} // namespace maestro

#endif // MAESTRO_COMMON_INLINE_LIST_HH
