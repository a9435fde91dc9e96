/**
 * @file
 * Checkpoint serialization for the simulator: a single `StateIO`
 * visitor that both writes and reads a compact byte image of the
 * machine (varint integers, run-length encoded sequences), plus the
 * versioned/checksummed checkpoint file container around it.
 *
 * Every stateful component implements
 *
 *   void serialize(StateIO &io);        // or a template member
 *
 * listing its fields with `io.io(field)`. The same member function
 * runs in both directions — in Write mode it appends bytes, in Read
 * mode it consumes them — so the save and load field order can never
 * drift apart. Read-mode failures (short buffer, section-tag
 * mismatch, illegal index) throw ErrorException with
 * Errc::truncated/Errc::corrupt; the checkpoint entry points catch
 * and convert to Status.
 *
 * Pointers to response targets (`MemRequest::requester`) are encoded
 * as indices into a registry filled by `registerTarget()` calls made
 * in the same fixed order on save and load. See DESIGN.md §5d.
 */

#ifndef BOUQUET_COMMON_STATEIO_HH
#define BOUQUET_COMMON_STATEIO_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/errors.hh"

namespace bouquet
{

class RespTarget;

/** Current checkpoint payload/container format version.
 *  v2: CacheStats gained per-class issued/late arrays; IPCP L1/L2
 *  serialize per-class issue counters and the epoch-history ring.
 *  v4: the run-state phase byte gained WarmupDone (the warm-state
 *  sharing boundary, DESIGN.md §5h), shifting the numeric value of
 *  the later phases; simInstrs is bound at measurement start.
 *  v5: integers are LEB128 varints, and vectors, deques and arrays
 *  are run-length encoded (StateIO::ioRuns). */
inline constexpr std::uint32_t kCheckpointVersion = 5;

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-based. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** FNV-1a over a string, chainable through `h`. */
inline std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a over one integer (little-endian bytes), chainable. */
inline std::uint64_t
fnv1a(std::uint64_t v, std::uint64_t h)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= static_cast<std::uint8_t>(v >> (8 * i));
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * The file-name stem of a key: fnv1a(key) as 16 lowercase hex digits.
 * Names every key-derived file (a campaign job's queue files, a
 * derived checkpoint, a warm state, a job's stats JSON), so an
 * artifact is found from its key alone.
 */
std::string keyHash(std::string_view key);

/**
 * The bidirectional serialization visitor. One instance is either a
 * writer (appends to an internal buffer) or a reader (consumes a
 * caller-supplied payload).
 */
class StateIO
{
  public:
    static StateIO
    writer()
    {
        return StateIO(Mode::Write, {});
    }

    /**
     * Writer that recycles `scratch`'s allocation: the buffer is
     * cleared but keeps its capacity, so a periodic checkpoint loop
     * serializing the same machine over and over reuses one
     * steady-state allocation instead of regrowing a multi-megabyte
     * vector every save. Pair with takeBuffer() to get it back.
     */
    static StateIO
    writer(std::vector<std::uint8_t> scratch)
    {
        scratch.clear();
        return StateIO(Mode::Write, std::move(scratch));
    }

    static StateIO
    reader(std::vector<std::uint8_t> payload)
    {
        return StateIO(Mode::Read, std::move(payload));
    }

    bool writing() const { return mode_ == Mode::Write; }
    bool reading() const { return mode_ == Mode::Read; }

    /** Bytes not yet consumed (Read mode). */
    std::size_t remaining() const { return buf_.size() - pos_; }

    /** Move the written image out (Write mode). */
    std::vector<std::uint8_t>
    takeBuffer()
    {
        return std::move(buf_);
    }

    /**
     * Write (or verify) a short section tag. A mismatch on read means
     * the payload is structurally off the rails; failing at the tag
     * names the component instead of misparsing its fields.
     */
    void
    beginSection(const char *name)
    {
        std::string tag = name;
        if (writing()) {
            io(tag);
            return;
        }
        std::string found;
        io(found);
        if (found != name)
            fail(Errc::corrupt, "checkpoint section mismatch: expected '" +
                                    tag + "', found '" + found + "'");
    }

    /** Raise Errc::corrupt from a component's serialize() member. */
    [[noreturn]] static void
    failCorrupt(std::string message)
    {
        fail(Errc::corrupt, std::move(message));
    }

    /** Read mode: every payload byte must have been consumed. */
    void
    expectEnd() const
    {
        if (reading() && remaining() != 0)
            fail(Errc::corrupt,
                 "checkpoint payload has " + std::to_string(remaining()) +
                     " trailing bytes");
    }

    /**
     * Register a response target. Save and load must make identical
     * registerTarget() call sequences before serializing any
     * MemRequest, so the index written by one run resolves to the
     * equivalent object in the other.
     */
    void
    registerTarget(RespTarget *t)
    {
        targets_.push_back(t);
    }

    /** Serialize a response-target pointer as a registry index. */
    void
    ioTarget(RespTarget *&t)
    {
        std::uint32_t idx = kNullTarget;
        if (writing()) {
            if (t != nullptr) {
                idx = 0;
                while (idx < targets_.size() && targets_[idx] != t)
                    ++idx;
                if (idx == targets_.size())
                    fail(Errc::corrupt,
                         "checkpoint save hit an unregistered response "
                         "target");
            }
            io(idx);
            return;
        }
        io(idx);
        if (idx == kNullTarget) {
            t = nullptr;
            return;
        }
        if (idx >= targets_.size())
            fail(Errc::corrupt, "checkpoint response-target index " +
                                    std::to_string(idx) + " out of range");
        t = targets_[idx];
    }

    /**
     * Generic scalar/struct dispatch: enums go through their
     * underlying integer, floating point through its bit pattern,
     * integers as varints (see ioInt), anything else via its
     * own serialize() member.
     */
    template <typename T>
    void
    io(T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            auto u = static_cast<std::underlying_type_t<T>>(v);
            io(u);
            v = static_cast<T>(u);
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == sizeof(std::uint64_t) ||
                          sizeof(T) == sizeof(std::uint32_t));
            using Bits =
                std::conditional_t<sizeof(T) == sizeof(std::uint64_t),
                                   std::uint64_t, std::uint32_t>;
            Bits bits = 0;
            if (writing())
                std::memcpy(&bits, &v, sizeof(bits));
            io(bits);
            if (reading())
                std::memcpy(&v, &bits, sizeof(bits));
        } else if constexpr (std::is_integral_v<T>) {
            ioInt(v);
        } else {
            v.serialize(*this);
        }
    }

    void
    io(bool &v)
    {
        std::uint8_t b = v ? 1 : 0;
        ioInt(b);
        v = b != 0;
    }

    void
    io(std::string &v)
    {
        std::uint32_t n = static_cast<std::uint32_t>(v.size());
        io(n);
        if (writing()) {
            buf_.insert(buf_.end(), v.begin(), v.end());
            return;
        }
        need(n);
        v.assign(reinterpret_cast<const char *>(buf_.data() + pos_), n);
        pos_ += n;
    }

    void
    io(std::vector<bool> &v)
    {
        std::vector<std::uint8_t> bytes;
        if (writing())
            bytes.assign(v.begin(), v.end());
        io(bytes);
        if (reading())
            v.assign(bytes.begin(), bytes.end());
    }

    template <typename T>
    void
    io(std::vector<T> &v)
    {
        ioCounted(v);
    }

    template <typename T>
    void
    io(std::deque<T> &v)
    {
        ioCounted(v);
    }

    template <typename T, std::size_t N>
    void
    io(std::array<T, N> &v)
    {
        ioRuns(v.begin(), N);
    }

  private:
    enum class Mode
    {
        Write,
        Read
    };

    static constexpr std::uint32_t kNullTarget = 0xFFFFFFFFu;

    StateIO(Mode mode, std::vector<std::uint8_t> buf)
        : mode_(mode), buf_(std::move(buf))
    {
    }

    [[noreturn]] static void
    fail(Errc code, std::string message)
    {
        throw ErrorException(makeError(code, std::move(message)));
    }

    void
    need(std::size_t n) const
    {
        if (remaining() < n)
            fail(Errc::truncated,
                 "checkpoint payload truncated: wanted " +
                     std::to_string(n) + " bytes, have " +
                     std::to_string(remaining()));
    }

    /**
     * Sequence run encoding (PackBits-style). A sequence is a series
     * of runs, each a one-byte header followed by its elements:
     * header h < 128 is a literal block of h + 1 elements serialized
     * one after another; h >= 128 is a repeat run, one element that
     * stands for h - 126 equal consecutive elements.
     */
    static constexpr std::size_t kMaxLiteral = 128;
    static constexpr std::size_t kMaxRepeat = 129;
    static constexpr std::size_t kRepeatBase = 126;

    /** Element types that go through ioInt() without a serialize(). */
    template <typename T>
    static constexpr bool kPacked =
        (std::is_integral_v<T> && !std::is_same_v<T, bool>) ||
        std::is_enum_v<T>;

    /**
     * A run covers at most kMaxRepeat elements and occupies at least
     * its header byte, plus one varint byte for a packed element. An
     * element count beyond what the bytes left can encode cannot be
     * honest; rejecting it here, before the caller allocates, keeps a
     * fuzzed length field from forcing a huge allocation.
     */
    template <typename T>
    void
    guardCount(std::uint64_t n) const
    {
        const std::size_t run_bytes = kPacked<T> ? 2 : 1;
        if (n > remaining() / run_bytes * kMaxRepeat)
            fail(Errc::corrupt,
                 "checkpoint element count " + std::to_string(n) +
                     " exceeds what the remaining payload can encode");
    }

    static std::uint8_t
    runHeader(bool repeat, std::size_t k)
    {
        return static_cast<std::uint8_t>(repeat ? k + kRepeatBase : k - 1);
    }

    /** Read one run header; `left` elements are still owed. */
    std::size_t
    readRunHeader(std::size_t left, bool &repeat)
    {
        need(1);
        const std::uint8_t h = buf_[pos_++];
        repeat = h >= kMaxLiteral;
        const std::size_t k = repeat ? h - kRepeatBase : h + std::size_t{1};
        if (k > left)
            fail(Errc::corrupt,
                 "checkpoint run of " + std::to_string(k) +
                     " elements overruns the declared count");
        return k;
    }

    /** A resizable container: element count, then its runs. */
    template <typename Seq>
    void
    ioCounted(Seq &v)
    {
        std::uint64_t n = v.size();
        io(n);
        if (reading()) {
            guardCount<typename Seq::value_type>(n);
            v.clear();
            v.resize(static_cast<std::size_t>(n));
        }
        ioRuns(v.begin(), v.size());
    }

    /** Both codecs write the same run format; integer arrays in
     *  contiguous storage take the one that compares by value. */
    template <typename It>
    void
    ioRuns(It first, std::size_t n)
    {
        using T = typename std::iterator_traits<It>::value_type;
        if constexpr (kPacked<T> && std::contiguous_iterator<It>) {
            if (writing())
                writePacked(std::to_address(first), n);
            else
                readPacked(std::to_address(first), n);
        } else if (writing()) {
            writeRuns(first, n);
        } else {
            readRuns(first, n);
        }
    }

    /**
     * Runs straight over an integer array, compared by value. A repeat
     * run starts wherever two equal elements do; a literal block runs
     * up to the next such pair and is encoded into the buffer in one
     * resize.
     */
    template <typename T>
    void
    writePacked(const T *p, std::size_t n)
    {
        std::size_t i = 0;
        while (i < n) {
            std::size_t k = 1;
            while (i + k < n && k < kMaxRepeat && p[i + k] == p[i])
                ++k;
            const bool repeat = k > 1;
            if (!repeat) {
                while (i + k < n && k < kMaxLiteral &&
                       !(i + k + 1 < n && p[i + k] == p[i + k + 1]))
                    ++k;
            }
            const std::size_t at = buf_.size();
            const std::size_t elems = repeat ? 1 : k;
            buf_.resize(at + 1 + elems * kMaxVarint);
            std::uint8_t *out = buf_.data() + at;
            *out++ = runHeader(repeat, k);
            for (std::size_t j = 0; j < elems; ++j)
                out = putVarint(out, toWire(p[i + j]));
            buf_.resize(static_cast<std::size_t>(out - buf_.data()));
            i += k;
        }
    }

    template <typename T>
    void
    readPacked(T *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n;) {
            bool repeat = false;
            const std::size_t k = readRunHeader(n - i, repeat);
            for (std::size_t j = 0; j < (repeat ? 1 : k); ++j)
                p[i + j] = fromWire<T>(getVarint());
            if (repeat)
                std::fill(p + i + 1, p + i + k, p[i]);
            i += k;
        }
    }

    /**
     * Runs of elements serialized through their own io(): each
     * element is appended, then compared byte-for-byte with the one
     * before it. An equal element extends (or starts) a repeat run and
     * is dropped; a new run gets its header inserted in front of its
     * first element, which moves only that element's bytes.
     */
    template <typename It>
    void
    writeRuns(It it, std::size_t n)
    {
        std::size_t hdr = 0;   // offset of the open run's header
        std::size_t prev = 0;  // offset of the last element written
        std::size_t count = 0;
        bool repeat = false;
        auto open_run_at = [&](std::size_t at) {
            buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(at),
                        std::uint8_t{0});
            hdr = at;
            prev = at + 1;
        };
        for (std::size_t i = 0; i < n; ++i, ++it) {
            const std::size_t cur = buf_.size();
            io(*it);
            const std::size_t len = buf_.size() - cur;
            const bool same =
                count > 0 && len == cur - prev &&
                std::memcmp(buf_.data() + prev, buf_.data() + cur, len) == 0;
            if (same && count < kMaxRepeat && (repeat || count == 1)) {
                buf_.resize(cur);
                repeat = true;
                ++count;
            } else if (same && !repeat) {
                // The literal's last element starts a repeat run.
                buf_[hdr] = runHeader(false, count - 1);
                buf_.resize(cur);
                open_run_at(prev);
                repeat = true;
                count = 2;
            } else if (count > 0 && !repeat && count < kMaxLiteral) {
                prev = cur;
                ++count;
            } else {
                if (count > 0)
                    buf_[hdr] = runHeader(repeat, count);
                open_run_at(cur);
                repeat = false;
                count = 1;
            }
        }
        if (count > 0)
            buf_[hdr] = runHeader(repeat, count);
    }

    /** A repeat run deserializes its one element into every slot it
     *  covers, exactly as if the element had been written each time. */
    template <typename It>
    void
    readRuns(It it, std::size_t n)
    {
        for (std::size_t i = 0; i < n;) {
            bool repeat = false;
            const std::size_t k = readRunHeader(n - i, repeat);
            const std::size_t at = pos_;
            for (std::size_t j = 0; j < k; ++j, ++it) {
                if (repeat)
                    pos_ = at;
                io(*it);
            }
            i += k;
        }
    }

    /**
     * Integers travel as LEB128 varints (7 bits a byte, low first),
     * signed ones zigzag-mapped first, so the zero and small values
     * that fill most of the machine's state take one or two bytes.
     */
    static constexpr std::size_t kMaxVarint = 10;

    static std::uint8_t *
    putVarint(std::uint8_t *out, std::uint64_t u)
    {
        while (u >= 0x80) {
            *out++ = static_cast<std::uint8_t>(u | 0x80);
            u >>= 7;
        }
        *out++ = static_cast<std::uint8_t>(u);
        return out;
    }

    std::uint64_t
    getVarint()
    {
        std::uint64_t u = 0;
        for (unsigned shift = 0;; shift += 7) {
            need(1);
            const std::uint8_t b = buf_[pos_++];
            if (shift == 63 && b > 1)
                fail(Errc::corrupt, "checkpoint varint overflows 64 bits");
            u |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if (b < 0x80)
                return u;
        }
    }

    template <typename T>
    static std::uint64_t
    toWire(T v)
    {
        if constexpr (std::is_enum_v<T>) {
            return toWire(static_cast<std::underlying_type_t<T>>(v));
        } else if constexpr (std::is_signed_v<T>) {
            const auto s = static_cast<std::int64_t>(v);
            return (static_cast<std::uint64_t>(s) << 1) ^
                   static_cast<std::uint64_t>(s >> 63);
        } else {
            return static_cast<std::uint64_t>(v);
        }
    }

    template <typename T>
    static T
    fromWire(std::uint64_t u)
    {
        if constexpr (std::is_enum_v<T>) {
            return static_cast<T>(
                fromWire<std::underlying_type_t<T>>(u));
        } else {
            using Wide = std::conditional_t<std::is_signed_v<T>,
                                            std::int64_t, std::uint64_t>;
            Wide w = static_cast<Wide>(u);
            if constexpr (std::is_signed_v<T>)
                w = static_cast<std::int64_t>(u >> 1) ^
                    -static_cast<std::int64_t>(u & 1);
            if (!std::in_range<T>(w))
                fail(Errc::corrupt, "checkpoint integer " +
                                        std::to_string(w) +
                                        " out of range for its field");
            return static_cast<T>(w);
        }
    }

    template <typename T>
    void
    ioInt(T &v)
    {
        if (writing()) {
            std::uint8_t bytes[kMaxVarint];
            buf_.insert(buf_.end(), bytes, putVarint(bytes, toWire(v)));
            return;
        }
        v = fromWire<T>(getVarint());
    }

    Mode mode_;
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::vector<RespTarget *> targets_;
};

/**
 * Atomically replace `path` with `bytes`, durably: write a hidden
 * pid-unique temp file beside it (`.<name>.tmp.<pid>`), fsync it,
 * rename it over `path`, then fsync the directory. Readers see the
 * old file or the new one, never a mix, and an OK return survives a
 * crash. On failure the temp file is removed; errors go through
 * classifyWriteErrno (ENOSPC/EDQUOT → Errc::no_space). Every atomic
 * file publish in the program goes through here.
 */
Status publishFile(const std::string &path, std::string_view bytes);

/**
 * `mkdir -p`: create `path` and any missing ancestors (mode 0777 less
 * the umask). An existing directory is success; publishFile does not
 * create the directory it writes into, so every artifact directory is
 * made through here first.
 */
Status ensureDir(const std::string &path);

/**
 * Publish `payload` inside the checkpoint container — magic, format
 * version, build id, `hash`, size and CRC — through publishFile.
 * No fault points: callers that want them (checkpoints) add their own.
 */
Status publishContainer(const std::string &path, std::uint64_t hash,
                        const std::vector<std::uint8_t> &payload);

/**
 * Read and validate a container: magic, version, payload size, CRC,
 * and the stored hash against `hash`. Returns the payload.
 */
Result<std::vector<std::uint8_t>>
readContainer(const std::string &path, std::uint64_t hash);

/**
 * publishContainer() for a machine checkpoint, keyed by the system's
 * config hash. Fault points: `ckpt.write`, `ckpt.nospace`.
 */
Status writeCheckpointFile(const std::string &path,
                           std::uint64_t config_hash,
                           const std::vector<std::uint8_t> &payload);

/**
 * readContainer() for a machine checkpoint: the config hash must
 * match `config_hash`. Fault point: `ckpt.read`.
 */
Result<std::vector<std::uint8_t>>
readCheckpointFile(const std::string &path, std::uint64_t config_hash);

} // namespace bouquet

#endif // BOUQUET_COMMON_STATEIO_HH
