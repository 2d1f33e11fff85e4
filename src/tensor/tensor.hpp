// Dense float32 tensor in NCHW layout.
//
// This is the only numeric container used by the CNN engine. It owns its
// storage (no views) and is cheap to move. Element access is provided both
// through flat indexing (hot loops index manually for speed) and a checked
// 4-D accessor used in tests and non-critical code.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "tensor/shape.hpp"

namespace dronet {

class Tensor {
  public:
    Tensor() = default;

    /// Allocates a zero-initialized tensor of the given shape.
    explicit Tensor(Shape shape);

    /// Convenience constructor: Tensor({n,c,h,w}).
    Tensor(int n, int c, int h, int w);

    [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
    [[nodiscard]] std::int64_t size() const noexcept { return shape_.size(); }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    [[nodiscard]] float* data() noexcept { return data_.data(); }
    [[nodiscard]] const float* data() const noexcept { return data_.data(); }

    /// Logical element range. The backing vector may hold extra capacity
    /// after a shrinking resize(); the span always covers exactly shape_.size()
    /// elements.
    [[nodiscard]] std::span<float> span() noexcept {
        return {data_.data(), static_cast<std::size_t>(shape_.size())};
    }
    [[nodiscard]] std::span<const float> span() const noexcept {
        return {data_.data(), static_cast<std::size_t>(shape_.size())};
    }

    float& operator[](std::int64_t i) noexcept { return data_[static_cast<std::size_t>(i)]; }
    float operator[](std::int64_t i) const noexcept { return data_[static_cast<std::size_t>(i)]; }

    /// Bounds-checked 4-D access; throws std::out_of_range on violation.
    [[nodiscard]] float& at(int n, int c, int h, int w);
    [[nodiscard]] float at(int n, int c, int h, int w) const;

    /// Flat offset of element (n,c,h,w); no bounds check.
    [[nodiscard]] std::int64_t index(int n, int c, int h, int w) const noexcept {
        return ((static_cast<std::int64_t>(n) * shape_.c + c) * shape_.h + h) * shape_.w + w;
    }

    /// Sets every element to `v`.
    void fill(float v) noexcept;

    /// Sets every element to zero.
    void zero() noexcept { fill(0.0f); }

    /// Reinterprets the buffer with a new shape of identical element count.
    /// Throws std::invalid_argument on size mismatch.
    void reshape(Shape shape);

    /// Re-shapes the tensor; contents become unspecified. Storage is only
    /// grown, never released (new tail elements are zero), so repeatedly
    /// toggling between batch sizes — the serving layer's micro-batching path
    /// flips layer activations between batch 1 and max_batch per popped batch
    /// — costs no allocation and no full-buffer zero-fill after the first
    /// pass at the largest shape.
    void resize(Shape shape);

    friend bool operator==(const Tensor& a, const Tensor& b) noexcept {
        if (a.shape_ != b.shape_) return false;
        return std::equal(a.span().begin(), a.span().end(), b.span().begin());
    }

  private:
    /// Storage starts on a cache line. With malloc's 16-byte alignment, where
    /// each activation started depended on the heap's history, and a layer
    /// whose 32-byte SIMD stores straddle cache lines runs several percent
    /// slower (docs/performance.md).
    template <typename T>
    struct CacheLineAllocator {
        using value_type = T;
        static constexpr std::align_val_t kAlign{64};
        CacheLineAllocator() = default;
        template <typename U>
        explicit CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}
        T* allocate(std::size_t n) {
            return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
        }
        void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }
        friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) noexcept {
            return true;
        }
    };

    Shape shape_{0, 0, 0, 0};
    std::vector<float, CacheLineAllocator<float>> data_;
};

}  // namespace dronet
