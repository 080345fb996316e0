// L15 bad fixture: store-file I/O with results dropped.
#include <cstdio>

void
publish(const char *tmp, const char *path, const void *buf, unsigned n)
{
    std::FILE *f = std::fopen(tmp, "wb");
    if (f == nullptr) {
        return;
    }
    std::fwrite(buf, 1, n, f);          // dropped: short write lost
    std::fflush(f);                      // dropped: ENOSPC lost
    fclose(f);                           // dropped: buffered tail lost
    std::rename(tmp, path);              // dropped: entry may not exist
}

void
conditional_close(std::FILE *f, bool noisy)
{
    if (noisy)
        std::fclose(f);  // statement position inside if-body: dropped
}
