/**
 * @file
 * A std::function replacement with a tunable inline capture buffer.
 *
 * libstdc++'s std::function only stores captures up to 16 bytes
 * inline; the simulator's hot callbacks (a controller pointer, an
 * in-flight record pointer and a tick) are bigger, so every
 * schedule/complete pair would cost a heap allocation -- tens of
 * millions per run. SmallFunction<Sig, N> stores captures up
 * to N bytes in place and only falls back to the heap beyond that,
 * so sizing N to the largest hot capture makes the per-event path
 * allocation-free.
 *
 * Supported surface (deliberately minimal): construct from any
 * callable, copy/move, assign nullptr, operator bool, invoke.
 * Copying a SmallFunction holding a move-only callable panics.
 */

#ifndef DTSIM_SIM_SMALL_FUNCTION_HH
#define DTSIM_SIM_SMALL_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace dtsim {

template <typename Sig, std::size_t N>
class SmallFunction;

template <typename R, typename... Args, std::size_t N>
class SmallFunction<R(Args...), N>
{
  public:
    SmallFunction() = default;
    SmallFunction(std::nullptr_t) {}

    template <typename F,
              typename Fn = std::decay_t<F>,
              std::enable_if_t<
                  !std::is_same_v<Fn, SmallFunction> &&
                      std::is_invocable_r_v<R, Fn&, Args...>,
                  int> = 0>
    SmallFunction(F&& f)
    {
        using Decayed = std::decay_t<F>;
        if constexpr (fitsInline<Decayed>()) {
            ::new (static_cast<void*>(buf_))
                Decayed(std::forward<F>(f));
            vt_ = &kInlineVt<Decayed>;
        } else {
            ptr() = new Decayed(std::forward<F>(f));
            vt_ = &kHeapVt<Decayed>;
        }
    }

    SmallFunction(SmallFunction&& other) noexcept { moveFrom(other); }

    SmallFunction(const SmallFunction& other) { copyFrom(other); }

    SmallFunction&
    operator=(SmallFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFunction&
    operator=(const SmallFunction& other)
    {
        if (this != &other) {
            reset();
            copyFrom(other);
        }
        return *this;
    }

    SmallFunction&
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    ~SmallFunction() { reset(); }

    explicit operator bool() const { return vt_ != nullptr; }

    R
    operator()(Args... args) const
    {
        return vt_->invoke(const_cast<unsigned char*>(buf_),
                           std::forward<Args>(args)...);
    }

  private:
    struct VTable
    {
        R (*invoke)(void* obj, Args&&... args);

        /** Move-construct dst's storage from src's; destroy src's. */
        void (*relocate)(void* src, void* dst);

        /** Copy-construct dst's storage from src's (null if F is
         *  move-only; copying then panics). */
        void (*copy)(const void* src, void* dst);

        void (*destroy)(void* obj);
    };

    template <typename F>
    static constexpr bool
    fitsInline()
    {
        return sizeof(F) <= N && alignof(F) <= alignof(std::max_align_t);
    }

    // --- inline-stored callables -------------------------------------
    template <typename F>
    static R
    invokeInline(void* o, Args&&... args)
    {
        return (*static_cast<F*>(o))(std::forward<Args>(args)...);
    }

    template <typename F>
    static void
    relocateInline(void* src, void* dst)
    {
        F* s = static_cast<F*>(src);
        ::new (dst) F(std::move(*s));
        s->~F();
    }

    template <typename F>
    static void
    copyInline(const void* src, void* dst)
    {
        ::new (dst) F(*static_cast<const F*>(src));
    }

    template <typename F>
    static void
    destroyInline(void* o)
    {
        static_cast<F*>(o)->~F();
    }

    // --- heap-stored callables (buffer holds a void* to the F) --------
    template <typename F>
    static F*
    heapObj(const void* buf)
    {
        return static_cast<F*>(*static_cast<void* const*>(buf));
    }

    template <typename F>
    static R
    invokeHeap(void* o, Args&&... args)
    {
        return (*heapObj<F>(o))(std::forward<Args>(args)...);
    }

    template <typename F>
    static void
    relocateHeap(void* src, void* dst)
    {
        *static_cast<void**>(dst) = *static_cast<void**>(src);
    }

    template <typename F>
    static void
    copyHeap(const void* src, void* dst)
    {
        *static_cast<void**>(dst) = new F(*heapObj<F>(src));
    }

    template <typename F>
    static void
    destroyHeap(void* o)
    {
        delete heapObj<F>(o);
    }

    template <typename F>
    static constexpr VTable kInlineVt{
        &invokeInline<F>, &relocateInline<F>,
        std::is_copy_constructible_v<F> ? &copyInline<F> : nullptr,
        &destroyInline<F>};

    template <typename F>
    static constexpr VTable kHeapVt{
        &invokeHeap<F>, &relocateHeap<F>,
        std::is_copy_constructible_v<F> ? &copyHeap<F> : nullptr,
        &destroyHeap<F>};

    void
    reset()
    {
        if (vt_) {
            vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

    void
    moveFrom(SmallFunction& other) noexcept
    {
        vt_ = other.vt_;
        if (vt_) {
            vt_->relocate(other.buf_, buf_);
            other.vt_ = nullptr;
        }
    }

    void
    copyFrom(const SmallFunction& other)
    {
        vt_ = other.vt_;
        if (vt_) {
            if (!vt_->copy)
                panic("SmallFunction: copying a move-only callable");
            vt_->copy(other.buf_, buf_);
        }
    }

    void*&
    ptr()
    {
        return *reinterpret_cast<void**>(buf_);
    }

    static_assert(N >= sizeof(void*),
                  "buffer must at least hold the heap pointer");

    alignas(std::max_align_t) unsigned char buf_[N];
    const VTable* vt_ = nullptr;
};

} // namespace dtsim

#endif // DTSIM_SIM_SMALL_FUNCTION_HH
