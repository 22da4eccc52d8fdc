# Build wsd, the simulation-as-a-service daemon. The repo is
# dependency-free, so the build stage needs nothing but the Go toolchain
# and the source tree.
FROM golang:1.24-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
ARG VERSION=dev
ARG COMMIT=unknown
RUN CGO_ENABLED=0 go build -trimpath \
    -ldflags "-X wavescalar/internal/version.Version=${VERSION} \
              -X wavescalar/internal/version.Commit=${COMMIT}" \
    -o /out/wsd ./cmd/wsd

FROM alpine:3.20
# /data is the journal mount point; pre-create it so the named volume
# inherits wsd ownership.
RUN adduser -D -u 10001 wsd && mkdir /data && chown wsd /data
USER wsd
COPY --from=build /out/wsd /usr/local/bin/wsd
# -addr must bind all interfaces inside a container; everything else
# (journal, quotas) comes from the compose file.
ENTRYPOINT ["wsd", "-addr", ":8080"]
EXPOSE 8080
