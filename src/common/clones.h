#pragma once
// SIGNGUARD_AVX2_CLONES compiles a hot function twice, for baseline
// x86-64 and for AVX2, and picks the clone once at load time (GCC/Clang
// target_clones). Put it only on code whose results the vector width
// cannot change: integer kernels, or float kernels whose per-element
// operation order is fixed (-ffp-contract=off keeps mul+add unfused in
// every clone). ThreadSanitizer builds take the baseline only:
// target_clones emits an IFUNC resolver that runs during relocation,
// before the TSan runtime is up, and crashes every binary that links it
// before main.

#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define SIGNGUARD_AVX2_CLONES \
  __attribute__((target_clones("default", "avx2")))
#endif
#endif
#ifndef SIGNGUARD_AVX2_CLONES
#define SIGNGUARD_AVX2_CLONES
#endif
