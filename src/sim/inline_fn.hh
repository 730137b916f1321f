/**
 * @file
 * InlineFn: a small-buffer-optimized, move-only void() callable.
 *
 * The event kernel fires millions of callbacks per simulated second;
 * with std::function every scheduled lambda that outgrows the
 * (implementation-defined, typically 16-byte) internal buffer costs a
 * heap allocation. InlineFn reserves enough inline storage for the
 * simulator's hot-path captures — a network arrival event carries a
 * packet handle plus routing coordinates, a coherence callback a
 * couple of pointers — so steady-state scheduling allocates nothing.
 * Callables larger than the buffer still work; they fall back to the
 * heap exactly like std::function would.
 */

#ifndef GS_SIM_INLINE_FN_HH
#define GS_SIM_INLINE_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gs
{

/** Move-only type-erased void() callable with inline storage. */
class InlineFn
{
  public:
    /**
     * Capture bytes stored without heap allocation. Sized for the
     * largest hot-path lambda (the synthetic traffic re-arm closure:
     * two shared_ptrs, two references and a node id, ~56 bytes);
     * packets travel as 4-byte pool handles, so network wire events
     * need far less. tests/sim/alloc_count_test.cc pins this.
     */
    static constexpr std::size_t inlineCapacity = 64;

    InlineFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inlineCapacity &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            call_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            if constexpr (std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>) {
                // Trivially relocatable: mgr_ stays null, moves are a
                // straight buffer copy and destruction is free. This
                // is the hot-path shape (captures of pointers, ids,
                // packet handles) — no indirect calls per move.
            } else {
                mgr_ = [](Op op, void *self, void *dst) {
                    auto *fn = static_cast<Fn *>(self);
                    if (op == Op::relocateTo)
                        ::new (dst) Fn(std::move(*fn));
                    fn->~Fn();
                };
            }
        } else {
            // Oversized capture: one allocation, owned pointer in buf.
            auto *heap = new Fn(std::forward<F>(f));
            ::new (static_cast<void *>(buf)) Fn *(heap);
            call_ = [](void *p) { (**static_cast<Fn **>(p))(); };
            mgr_ = [](Op op, void *self, void *dst) {
                auto **fn = static_cast<Fn **>(self);
                if (op == Op::relocateTo)
                    ::new (dst) Fn *(*fn);
                else
                    delete *fn;
            };
        }
    }

    /**
     * Moved-from state: empty for heap-backed and non-trivial
     * callables; valid-but-unspecified (possibly still truthy, never
     * owning) for trivially-relocatable ones. The trivial path skips
     * nulling the source — its destructor is a no-op either way —
     * which keeps the event kernel's fire path to a plain copy.
     */
    InlineFn(InlineFn &&o) noexcept : call_(o.call_), mgr_(o.mgr_)
    {
        if (mgr_) {
            mgr_(Op::relocateTo, o.buf, buf);
            o.call_ = nullptr;
            o.mgr_ = nullptr;
        } else if (call_) {
            std::memcpy(buf, o.buf, inlineCapacity);
        }
    }

    InlineFn &
    operator=(InlineFn &&o) noexcept
    {
        if (this != &o) {
            if (mgr_)
                mgr_(Op::destroy, buf, nullptr);
            call_ = o.call_;
            mgr_ = o.mgr_;
            if (mgr_) {
                mgr_(Op::relocateTo, o.buf, buf);
                o.call_ = nullptr;
                o.mgr_ = nullptr;
            } else if (call_) {
                std::memcpy(buf, o.buf, inlineCapacity);
            }
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn()
    {
        if (mgr_)
            mgr_(Op::destroy, buf, nullptr);
    }

    /** Invoke. Precondition: non-empty. */
    void operator()() { call_(buf); }

    explicit operator bool() const { return call_ != nullptr; }

    /** Thunk type returned by stealTrivial(); invoke as thunk(tmp). */
    using CallFn = void (*)(void *);

    /**
     * Fire-path escape hatch for the event kernel: when the stored
     * callable is trivially relocatable (mgr_ unset), copy its
     * capture bytes into @p tmp — at least inlineCapacity bytes,
     * max_align_t-aligned — and return the call thunk; *this is left
     * a vacated husk. Returns nullptr (and does nothing) for
     * heap-backed/non-trivial callables, which need a full move. The
     * caller invoking the thunk directly skips the temporary
     * InlineFn's destructor check that a move would cost.
     */
    CallFn
    stealTrivial(void *tmp)
    {
        if (mgr_)
            return nullptr;
        std::memcpy(tmp, buf, inlineCapacity);
        return call_;
    }

    /** True when a callable of type @p F stays in the inline buffer. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        using Fn = std::decay_t<F>;
        return sizeof(Fn) <= inlineCapacity &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    enum class Op
    {
        relocateTo, ///< move-construct into dst, destroy self
        destroy,    ///< destroy self
    };

    using MgrFn = void (*)(Op, void *self, void *dst);

    alignas(std::max_align_t) unsigned char buf[inlineCapacity];
    CallFn call_ = nullptr;
    MgrFn mgr_ = nullptr;
};

/** Callback type executed when an event fires. */
using EventFn = InlineFn;

} // namespace gs

#endif // GS_SIM_INLINE_FN_HH
