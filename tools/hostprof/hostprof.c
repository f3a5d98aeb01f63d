/* hostprof: a sampling profiler that needs nothing from the program it looks
 * at but frame pointers. Preloaded (LD_PRELOAD) into a single-threaded
 * process, it arms ITIMER_PROF, walks the frame-pointer chain of the main
 * thread on every SIGPROF, and at exit writes the samples (one line of return
 * addresses each, innermost first) followed by /proc/self/maps to
 * $HOSTPROF_OUT. hostprof.py turns that into names. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 16) /* 4 minutes at 250 Hz; untouched pages cost nothing */
#define MAX_DEPTH 64

static uintptr_t samples[MAX_SAMPLES][MAX_DEPTH];
static volatile size_t taken;
static uintptr_t stack_top; /* end of the main thread's stack mapping */

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    if (taken >= MAX_SAMPLES) return;
    const mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
#if defined(__x86_64__)
    uintptr_t pc = m->gregs[REG_RIP], fp = m->gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = m->pc, fp = m->regs[29];
#else
#error "hostprof walks frame pointers on x86_64 and aarch64 only"
#endif
    uintptr_t *row = samples[taken];
    int depth = 0;
    row[depth++] = pc;
    /* The handler runs on the interrupted stack, below every frame it may
     * read: a frame pointer is trusted only between here and the stack's
     * top, aligned, and above the one before it. Code built without frame
     * pointers (libc) keeps other things in that register; the chain then
     * ends early, it never leaves the stack. */
    uintptr_t floor = (uintptr_t)&row;
    while (depth < MAX_DEPTH && fp > floor && fp + 16 <= stack_top && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret == 0) break;
        row[depth++] = ret;
        floor = fp;
        fp = next;
    }
    if (depth < MAX_DEPTH) row[depth] = 0;
    taken++;
}

static void set_timer(long usec) {
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((constructor)) static void hostprof_start(void) {
    char line[512];
    unsigned long from, to;
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &from, &to) == 2) stack_top = to;
    if (maps) fclose(maps);
    const char *hz = getenv("HOSTPROF_HZ");
    struct sigaction act = {0};
    act.sa_sigaction = on_prof;
    act.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &act, NULL);
    set_timer(1000000 / (hz && atoi(hz) > 0 ? atoi(hz) : 250));
}

__attribute__((destructor)) static void hostprof_dump(void) {
    set_timer(0);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    if (!out) return;
    for (size_t s = 0; s < taken; s++) {
        fputc('S', out);
        for (int d = 0; d < MAX_DEPTH && samples[s][d]; d++)
            fprintf(out, " %lx", (unsigned long)samples[s][d]);
        fputc('\n', out);
    }
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    if (maps) fclose(maps);
    fclose(out);
}
