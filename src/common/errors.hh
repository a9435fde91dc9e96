/**
 * @file
 * Lightweight error vocabulary shared across the harness: an error
 * code enum, an `Error` value (code + message + transience), and a
 * `Result<T>` / `Status` pair so I/O and lookup layers can report
 * failures without throwing or exiting. Call sites that must stay
 * exception-based (legacy constructors, factory wrappers) convert an
 * Error into an ErrorException, which preserves the code/transience
 * so the Runner's per-job capture can classify it for retry.
 */

#ifndef BOUQUET_COMMON_ERRORS_HH
#define BOUQUET_COMMON_ERRORS_HH

#include <cassert>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

namespace bouquet
{

/** What went wrong, machine-readably. */
enum class Errc
{
    ok,
    io,            //!< open/read/write/rename failure
    bad_magic,     //!< file is not the expected format at all
    bad_version,   //!< right format family, unsupported version
    truncated,     //!< file shorter than its header claims
    oversized,     //!< file longer than its header claims
    empty,         //!< structurally valid but holds no payload
    unknown_name,  //!< lookup by name found nothing
    corrupt,       //!< checksum / structural validation failed
    lock_failed,   //!< advisory file lock could not be taken
    injected,      //!< raised by the fault-injection layer
    no_space,      //!< write failed for lack of disk space/quota
    failed,        //!< unclassified failure
};

inline const char *
errcName(Errc code)
{
    switch (code) {
      case Errc::ok: return "ok";
      case Errc::io: return "io";
      case Errc::bad_magic: return "bad-magic";
      case Errc::bad_version: return "bad-version";
      case Errc::truncated: return "truncated";
      case Errc::oversized: return "oversized";
      case Errc::empty: return "empty";
      case Errc::unknown_name: return "unknown-name";
      case Errc::corrupt: return "corrupt";
      case Errc::lock_failed: return "lock-failed";
      case Errc::injected: return "injected";
      case Errc::no_space: return "no-space";
      case Errc::failed: return "failed";
    }
    return "unknown";
}

/**
 * One failure. `transient` marks faults a retry may clear (I/O
 * flakes, injected transients); permanent errors (unknown names,
 * corrupt formats) must not be retried.
 */
struct Error
{
    Errc code = Errc::failed;
    std::string message;
    bool transient = false;
};

inline Error
makeError(Errc code, std::string message, bool transient = false)
{
    return Error{code, std::move(message), transient};
}

/**
 * Exception wrapper carrying an Error through code that still
 * unwinds (constructors, deep simulation paths). Derives
 * std::runtime_error so legacy catch sites keep working.
 */
class ErrorException : public std::runtime_error
{
  public:
    explicit ErrorException(Error e)
        : std::runtime_error(e.message), error_(std::move(e))
    {
    }

    const Error &error() const { return error_; }

  private:
    Error error_;
};

/** Success-or-Error for operations with no payload. */
class [[nodiscard]] Status
{
  public:
    Status() = default;  //!< success
    Status(Error e) : error_(std::move(e)), ok_(false) {}

    bool ok() const { return ok_; }
    explicit operator bool() const { return ok_; }

    const Error &error() const
    {
        assert(!ok_);
        return error_;
    }

  private:
    Error error_;
    bool ok_ = true;
};

/** Value-or-Error. */
template <typename T>
class [[nodiscard]] Result
{
  public:
    /** Converting value constructor (e.g. unique_ptr<Derived>). */
    template <typename U,
              typename = std::enable_if_t<
                  std::is_convertible_v<U &&, T> &&
                  !std::is_same_v<std::decay_t<U>, Error> &&
                  !std::is_same_v<std::decay_t<U>, Result>>>
    Result(U &&value)
        : v_(std::in_place_index<0>, T(std::forward<U>(value)))
    {
    }

    Result(Error e) : v_(std::in_place_index<1>, std::move(e)) {}

    bool ok() const { return std::holds_alternative<T>(v_); }
    explicit operator bool() const { return ok(); }

    const T &value() const &
    {
        assert(ok());
        return std::get<T>(v_);
    }

    T &value() &
    {
        assert(ok());
        return std::get<T>(v_);
    }

    /** Move the payload out (consumes the result). */
    T take()
    {
        assert(ok());
        return std::move(std::get<T>(v_));
    }

    const Error &error() const
    {
        assert(!ok());
        return std::get<Error>(v_);
    }

    Status status() const { return ok() ? Status() : Status(error()); }

  private:
    std::variant<T, Error> v_;
};

} // namespace bouquet

#endif // BOUQUET_COMMON_ERRORS_HH
