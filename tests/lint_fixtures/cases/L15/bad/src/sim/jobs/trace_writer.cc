// L15 bad fixture: job-engine file rewrite with results dropped.
#include <cstdio>

void
rewrite(const char *path, const void *buf, unsigned n)
{
    std::FILE *f = std::fopen(path, "wb");
    if (f == nullptr) {
        return;
    }
    std::fwrite(buf, 1, n, f);  // dropped: a short rewrite goes unseen
    std::fclose(f);             // dropped: buffered tail lost
}
