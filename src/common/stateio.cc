#include "common/stateio.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/degrade.hh"
#include "common/faultinject.hh"

namespace bouquet
{

namespace
{

/**
 * Container header, fixed 36 bytes, little-endian. The build id that
 * follows is informational (recorded for post-mortems, never
 * validated): a checkpoint is portable across builds as long as the
 * format version and config hash agree.
 */
constexpr char kMagic[8] = {'I', 'P', 'C', 'P', 'C', 'K', 'P', 'T'};
constexpr std::size_t kHeaderBytes = 36;

const char *
buildId()
{
    return __DATE__ " " __TIME__;
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

struct CrcTable
{
    std::uint32_t entries[256];

    CrcTable()
    {
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = n;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            entries[n] = c;
        }
    }
};

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    static const CrcTable table;
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table.entries[(c ^ data[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::string
keyHash(std::string_view key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(key)));
    return hex;
}

Status
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return Status();
    // Only a missing ancestor is worth a second try.
    const std::size_t slash = path.find_last_of('/');
    if (errno == ENOENT && slash != std::string::npos && slash > 0) {
        if (Status s = ensureDir(path.substr(0, slash)); !s.ok())
            return s;
        if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
            return Status();
    }
    return makeError(Errc::io, "cannot create directory " + path, true);
}

Status
publishFile(const std::string &path, std::string_view bytes)
{
    // A hidden, pid-unique temp name beside the target: two processes
    // publishing one path (a reclaimed lease) never share a temp
    // file, and no `prefix-*` glob of the directory matches it.
    const std::size_t base = path.find_last_of('/') + 1;  // 0 if none
    const std::string dir = base == 0 ? "." : path.substr(0, base);
    const std::string tmp = path.substr(0, base) + "." +
                            path.substr(base) + ".tmp." +
                            std::to_string(::getpid());

    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
    if (fd < 0)
        return classifyWriteErrno(errno,
                                  "cannot open " + tmp + " for writing");
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    bool ok = off == bytes.size() && ::fsync(fd) == 0;
    int saved = errno;
    if (::close(fd) != 0 && ok) {
        ok = false;
        saved = errno;
    }
    if (!ok) {
        ::unlink(tmp.c_str());
        return classifyWriteErrno(saved, "short write to " + tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        saved = errno;
        ::unlink(tmp.c_str());
        return classifyWriteErrno(saved,
                                  "cannot rename " + tmp + " to " +
                                      path);
    }
    // The rename is durable only once the directory entry is.
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY |
                                            O_CLOEXEC);
    if (dfd < 0 || ::fsync(dfd) != 0) {
        saved = errno;
        if (dfd >= 0)
            ::close(dfd);
        return classifyWriteErrno(saved, "cannot sync directory " + dir);
    }
    ::close(dfd);
    return Status();
}

Status
publishContainer(const std::string &path, std::uint64_t hash,
                 const std::vector<std::uint8_t> &payload)
{
    const std::string build = buildId();
    std::string image;
    image.reserve(kHeaderBytes + build.size() + payload.size());
    image.append(kMagic, sizeof(kMagic));
    putU32(image, kCheckpointVersion);
    putU32(image, static_cast<std::uint32_t>(build.size()));
    putU64(image, hash);
    putU64(image, payload.size());
    putU32(image, crc32(payload.data(), payload.size()));
    image += build;
    image.append(reinterpret_cast<const char *>(payload.data()),
                 payload.size());
    return publishFile(path, image);
}

Result<std::vector<std::uint8_t>>
readContainer(const std::string &path, std::uint64_t hash)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return makeError(Errc::io, "cannot open " + path);

    std::vector<std::uint8_t> image;
    std::uint8_t chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        image.insert(image.end(), chunk, chunk + got);
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        return makeError(Errc::io, "read error on " + path, true);

    if (image.size() < sizeof(kMagic) ||
        std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0)
        return makeError(Errc::bad_magic,
                         path + " is not a checkpoint container");
    if (image.size() < kHeaderBytes)
        return makeError(Errc::truncated,
                         path + " has a short header");

    const std::uint32_t version = getU32(image.data() + 8);
    const std::uint32_t build_len = getU32(image.data() + 12);
    const std::uint64_t file_hash = getU64(image.data() + 16);
    const std::uint64_t payload_size = getU64(image.data() + 24);
    const std::uint32_t payload_crc = getU32(image.data() + 32);

    if (version != kCheckpointVersion)
        return makeError(Errc::bad_version,
                         path + " is format version " +
                             std::to_string(version) + ", expected " +
                             std::to_string(kCheckpointVersion));

    const std::uint64_t expect =
        kHeaderBytes + std::uint64_t{build_len} + payload_size;
    if (image.size() < expect)
        return makeError(Errc::truncated,
                         path + " is truncated: " +
                             std::to_string(image.size()) + " of " +
                             std::to_string(expect) + " bytes");
    if (image.size() > expect)
        return makeError(Errc::oversized,
                         path + " has trailing bytes");

    if (file_hash != hash)
        return makeError(Errc::corrupt,
                         path + " was written for a different "
                                "configuration or key");

    const std::uint8_t *payload =
        image.data() + kHeaderBytes + build_len;
    if (crc32(payload, payload_size) != payload_crc)
        return makeError(Errc::corrupt,
                         path + " failed CRC validation");

    return std::vector<std::uint8_t>(payload, payload + payload_size);
}

Status
writeCheckpointFile(const std::string &path, std::uint64_t config_hash,
                    const std::vector<std::uint8_t> &payload)
{
    if (auto err = faultCheck(faults::kCkptWrite, path))
        return *err;
    if (faultCheck(faults::kCkptNospace, path))
        return makeError(Errc::no_space,
                         "injected ENOSPC writing " + path, true);
    return publishContainer(path, config_hash, payload);
}

Result<std::vector<std::uint8_t>>
readCheckpointFile(const std::string &path, std::uint64_t config_hash)
{
    if (auto err = faultCheck(faults::kCkptRead, path))
        return *err;
    return readContainer(path, config_hash);
}

} // namespace bouquet
