/* hostprof: a sampling profiler that needs nothing from the program it looks
 * at but frame pointers. Preloaded (LD_PRELOAD) into a single-threaded
 * process, it arms ITIMER_PROF, walks the frame-pointer chain of the main
 * thread on every SIGPROF, and at exit writes the samples (one line of return
 * addresses each, innermost first; `R` instead of `S` for a chain resumed
 * past a leaf, see `resume`) followed by /proc/self/maps to $HOSTPROF_OUT.
 * hostprof.py turns that into names. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 16) /* 4 minutes at 250 Hz; untouched pages cost nothing */
#define MAX_DEPTH 64
#define MAX_TEXT 8
#define SCAN_WORDS 64 /* how far above a leaf's stack pointer `resume` looks */

static uintptr_t samples[MAX_SAMPLES][MAX_DEPTH];
static unsigned char resumed[MAX_SAMPLES];
static volatile size_t taken;
static uintptr_t stack_top; /* end of the main thread's stack mapping */
/* The program's own executable mappings (not libc's, not the shim's). */
static uintptr_t text_from[MAX_TEXT], text_to[MAX_TEXT];
static int texts;

static int in_text(uintptr_t addr) {
    for (int i = 0; i < texts; i++)
        if (addr >= text_from[i] && addr < text_to[i]) return 1;
    return 0;
}

/* Follow the frame-pointer chain from `fp`, appending return addresses to
 * `row` from `depth` on. The handler runs on the interrupted stack, below
 * every frame it may read: a frame pointer is trusted only between `floor`
 * and the stack's top, aligned, and above the one before it. Code built
 * without frame pointers (libc) keeps other things in that register; the
 * chain then ends early, it never leaves the stack. */
static int walk(uintptr_t *row, int depth, uintptr_t fp, uintptr_t floor) {
    while (depth < MAX_DEPTH && fp > floor && fp + 16 <= stack_top && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret == 0) break;
        row[depth++] = ret;
        floor = fp;
        fp = next;
    }
    return depth;
}

/* A sample taken in a function that keeps no frame pointer (malloc, free:
 * libc's) whose chain never reached the program: walk up from the stack
 * pointer, taking each word that lies in the program's code as a return
 * address (the link register first), until a frame record (a frame pointer
 * further up the stack beside a return address into the program) resumes
 * the chain. Returns the new depth, or 0 when nothing near is the program's.
 */
static int resume(uintptr_t *row, uintptr_t sp, uintptr_t link, uintptr_t floor) {
    if (sp <= floor || sp % 8 != 0) return 0;
    int depth = 1;
    if (in_text(link)) row[depth++] = link;
    for (uintptr_t at = sp; at < sp + 8 * SCAN_WORDS && at + 16 <= stack_top && depth < MAX_DEPTH;
         at += 8) {
        uintptr_t word = ((uintptr_t *)at)[0], above = ((uintptr_t *)at)[1];
        if (word > at && word % 8 == 0 && word + 16 <= stack_top && in_text(above))
            return walk(row, depth, at, at - 8);
        if (in_text(word)) row[depth++] = word;
    }
    return depth > 1 ? depth : 0;
}

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    if (taken >= MAX_SAMPLES) return;
    const mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
#if defined(__x86_64__)
    uintptr_t pc = m->gregs[REG_RIP], fp = m->gregs[REG_RBP], sp = m->gregs[REG_RSP], link = 0;
#elif defined(__aarch64__)
    uintptr_t pc = m->pc, fp = m->regs[29], sp = m->sp, link = m->regs[30];
#else
#error "hostprof walks frame pointers on x86_64 and aarch64 only"
#endif
    uintptr_t *row = samples[taken];
    row[0] = pc;
    uintptr_t floor = (uintptr_t)&row;
    int depth = walk(row, 1, fp, floor);
    int ours = in_text(pc);
    for (int d = 1; d < depth && !ours; d++) ours = in_text(row[d]);
    if (!ours) {
        int again = resume(row, sp, link, floor);
        if (again) depth = again, resumed[taken] = 1;
    }
    if (depth < MAX_DEPTH) row[depth] = 0;
    taken++;
}

static void set_timer(long usec) {
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((constructor)) static void hostprof_start(void) {
    char line[512], perms[8], path[512], exe[512];
    unsigned long from, to;
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps)) {
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %511s", &from, &to, perms, path) != 4) continue;
        if (strcmp(path, "[stack]") == 0) stack_top = to;
        else if (perms[2] == 'x' && strcmp(path, exe) == 0 && texts < MAX_TEXT)
            text_from[texts] = from, text_to[texts++] = to;
    }
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
        fputc(resumed[s] ? 'R' : 'S', out);
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
