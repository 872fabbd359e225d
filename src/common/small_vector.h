#ifndef POL_COMMON_SMALL_VECTOR_H_
#define POL_COMMON_SMALL_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>

#include "common/check.h"

// A vector of trivially copyable elements that keeps up to N of them
// inside the object and spills to the heap past N.
//
// Inventories hold millions of Table 3 summaries whose sketches are
// almost all tiny (one or two hashes, centroids or counters; see
// DESIGN.md "Summary memory layout"). Held in std::vector, every one of
// them is a heap block, so building, merging, copying and freeing a
// summary pays about ten malloc/free pairs. Held here, the common
// case is a memcpy.
//
// Layout: the inline bytes share a union with the heap pointer, so the
// object is max(N * sizeof(T), 8) + 8 bytes — SmallVector<uint64_t, 2>
// is the size of a std::vector<uint64_t>, SmallVector<T, 0> is a
// 16-byte heap vector. Sizes and capacities are 32-bit. Iterators are
// raw pointers, invalidated by any growth, like std::vector's.
//
// Elements are copied with memcpy, so T must be trivially copyable.
// Copies allocate exactly what they hold (a copy of a spilled vector
// that has shrunk to N or fewer elements is inline again); moves steal
// the heap buffer. capacity() is N while the elements are inline.

namespace pol {

template <typename T, uint32_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector copies elements with memcpy");

 public:
  SmallVector() = default;
  SmallVector(const SmallVector& other) { CopyFrom(other); }
  SmallVector(SmallVector&& other) noexcept { StealFrom(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(other);
    }
    return *this;
  }
  ~SmallVector() { Release(); }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T* data() { return is_inline() ? InlineData() : storage_.heap; }
  const T* data() const {
    return is_inline() ? InlineData() : storage_.heap;
  }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](size_t i) {
    POL_DCHECK(i < size_);
    return data()[i];
  }
  const T& operator[](size_t i) const {
    POL_DCHECK(i < size_);
    return data()[i];
  }

  // By value, so pushing an element of this vector survives growth.
  void push_back(T value) {
    if (size_ == capacity_) Grow(size_ + size_t{1});
    data()[size_++] = value;
  }

  // Inserts before `pos` (a pointer into this vector); returns the
  // inserted element's new position.
  T* insert(const T* pos, T value) {
    const size_t index = static_cast<size_t>(pos - data());
    POL_DCHECK(index <= size_);
    if (size_ == capacity_) Grow(size_ + size_t{1});
    T* at = data() + index;
    std::memmove(static_cast<void*>(at + 1), at, (size_ - index) * sizeof(T));
    *at = value;
    ++size_;
    return at;
  }

  // Grows with value-initialized elements, or truncates.
  void resize(size_t n) {
    if (n > capacity_) Grow(n);
    std::fill(data() + size_, data() + std::max<size_t>(n, size_), T());
    size_ = Narrow(n);
  }

  void assign(size_t n, const T& value) {
    clear();
    if (n > capacity_) Grow(n);
    std::fill_n(data(), n, value);
    size_ = Narrow(n);
  }

  void clear() { size_ = 0; }

  void reserve(size_t n) {
    if (n > capacity_) Reallocate(n);
  }

  // Returns to inline storage when the elements fit, else trims the
  // heap buffer to size().
  void shrink_to_fit() {
    if (is_inline() || size_ == capacity_) return;
    if (size_ <= N) {
      T* heap = storage_.heap;
      std::memcpy(static_cast<void*>(InlineData()), heap, size_ * sizeof(T));
      std::allocator<T>().deallocate(heap, capacity_);
      capacity_ = N;
      return;
    }
    Reallocate(size_);
  }

 private:
  bool is_inline() const { return capacity_ == N; }
  T* InlineData() { return reinterpret_cast<T*>(storage_.bytes); }
  const T* InlineData() const {
    return reinterpret_cast<const T*>(storage_.bytes);
  }

  static uint32_t Narrow(size_t n) {
    POL_CHECK(n <= std::numeric_limits<uint32_t>::max())
        << "SmallVector size " << n << " exceeds 32 bits";
    return static_cast<uint32_t>(n);
  }

  // Amortized growth: at least double, as std::vector does.
  void Grow(size_t min_capacity) {
    Reallocate(std::max<size_t>(min_capacity, size_t{2} * capacity_));
  }

  // Moves the elements into a heap buffer of exactly `capacity` (> N).
  void Reallocate(size_t capacity) {
    const uint32_t narrowed = Narrow(capacity);
    T* heap = std::allocator<T>().allocate(narrowed);
    std::memcpy(static_cast<void*>(heap), data(), size_ * sizeof(T));
    Release(/*keep_size=*/true);
    storage_.heap = heap;
    capacity_ = narrowed;
  }

  // Frees the heap buffer, if any, and returns to (empty) inline state.
  void Release(bool keep_size = false) {
    if (!is_inline()) std::allocator<T>().deallocate(storage_.heap, capacity_);
    capacity_ = N;
    if (!keep_size) size_ = 0;
  }

  void CopyFrom(const SmallVector& other) {
    if (other.size_ > capacity_) {
      Release();
      Reallocate(other.size_);
    }
    std::memcpy(static_cast<void*>(data()), other.data(),
                other.size_ * sizeof(T));
    size_ = other.size_;
  }

  // Precondition: this vector is inline and owns nothing.
  void StealFrom(SmallVector& other) {
    if (other.is_inline()) {
      std::memcpy(static_cast<void*>(InlineData()), other.InlineData(),
                  other.size_ * sizeof(T));
    } else {
      storage_.heap = other.storage_.heap;
      capacity_ = other.capacity_;
      other.capacity_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  union Storage {
    T* heap;
    alignas(T) unsigned char bytes[N == 0 ? 1 : N * sizeof(T)];
  };
  Storage storage_{};
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
};

}  // namespace pol

#endif  // POL_COMMON_SMALL_VECTOR_H_
